import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import operator
import os
import random
import re
import shlex
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rideshare_market
from rideshare_market import cli
from rideshare_market import (
    UNASSIGNED,
    Assignment,
    Edge,
    MarketInstance,
    Network,
    ODPair,
    PaymentSchedule,
    Route,
    Traveler,
    ValidationError,
    Vehicle,
    compute_profits,
    cost_share,
    solve_optimal_assignment,
    surplus,
    synthesize_stable_payments,
)
from rideshare_market.allocation import check_payments, validate_schedule
from rideshare_market.cli import build_parser, main
from rideshare_market.generate import generate_instance
from rideshare_market.instance_io import _Scaled, parse_document, serialize_document
from rideshare_market.market import _NUMBER, MAX_DIGITS, exact_number, exact_ratio
from rideshare_market.network import route_vertex_sequence, serves, stops


def test_round_trip_canonical(canonical):
    text = serialize_document(canonical)
    assert parse_document(text).instance == canonical
    assert serialize_document(parse_document(text).instance) == text


def test_round_trip_generated_instances():
    for seed in range(10):
        inst = generate_instance(seed, n=4, m=2)
        assert parse_document(serialize_document(inst)).instance == inst
    inst = generate_instance(0, n=4, m=2, degenerate=True)
    assert parse_document(serialize_document(inst)).instance == inst


def test_round_trip_explicit_mode(canonical):
    vehicle = canonical.vehicles[0]
    shares = {"T1": F(3, 2), "T2": F(5, 2)}
    inst = MarketInstance(
        canonical.network,
        canonical.travelers,
        (Vehicle(vehicle.id, vehicle.route, 2, vehicle.operating_cost, cost_shares=shares),),
        cost_share_mode="explicit",
    )
    text = serialize_document(inst)
    assert json.loads(text)["vehicles"][0]["cost_shares"] == {"T1": "3/2", "T2": "5/2"}
    assert parse_document(text).instance == inst
    assert serialize_document(parse_document(text).instance) == text


def test_round_trip_payments(canonical):
    t = PaymentSchedule({("T1", "V1"): F(7, 3), ("T2", "V1"): F(2)})
    text = serialize_document(canonical, t)
    doc = parse_document(text)
    assert doc.payments.entries == t.entries


def _reference_document(inst, payments=None):
    """The document as a dict, written by ``json.dumps(doc, indent=2)``:
    the reference ``serialize_document`` matches byte for byte."""
    doc = {
        "schema_version": 1,
        "network": {
            "vertices": sorted(inst.network.vertices),
            "edges": [[e.id, e.tail, e.head] for e in inst.network.edges],
        },
        "travelers": [
            {
                "id": t.id,
                "origin": t.od.origin,
                "destination": t.od.destination,
                "v_max": str(t.v_max),
                "v_min": str(t.v_min),
                "inconvenience": {vid: str(phi) for vid, phi in sorted(t.inconvenience.items())},
            }
            for t in inst.travelers
        ],
        "vehicles": [
            {
                "id": v.id,
                "route": list(v.route.edge_ids),
                "capacity": v.capacity,
                "operating_cost": str(v.operating_cost),
                **(
                    {"cost_shares": {t: str(s) for t, s in sorted(v.cost_shares.items())}}
                    if v.cost_shares is not None
                    else {}
                ),
            }
            for v in inst.vehicles
        ],
        "options": {"cost_share_mode": inst.cost_share_mode},
    }
    if payments is not None:
        table = {}
        for (tid, vid), value in sorted(payments.entries.items()):
            table.setdefault(tid, {})[vid] = str(value)
        doc["payments"] = table
    return json.dumps(doc, indent=2) + "\n"


def _odd_id_market():
    """Ids with non-ASCII, quote, backslash and control characters, a
    traveler with no inconvenience entries and explicit cost shares."""
    a, b, c = "Zürich", 'say "hi"', "back\\slash\x01"
    net = Network(frozenset((a, b, c)), (Edge("e\t1", a, b), Edge("e☃2", b, c)))
    travelers = (
        Traveler("T\u00e9", ODPair(a, c), v_max=F(10), v_min=F(1, 3), inconvenience={"V\n": F(2)}),
        Traveler('T"2', ODPair(b, c), v_max=F(6), v_min=F(0), inconvenience={}),
    )
    shares = {"T\u00e9": F(3, 2), 'T"2': F(5, 2)}
    vehicles = (Vehicle("V\n", Route(("e\t1", "e☃2")), 2, F(4), cost_shares=shares),)
    return MarketInstance(net, travelers, vehicles, cost_share_mode="explicit")


def test_serialize_document_equals_the_json_dumps_reference(canonical):
    cases = []
    for s in range(120):
        inst = generate_instance(s, s % 13 + 1, (s // 13) % 5 + 1, degenerate=s % 2 == 1)
        matrix = inst.compatibility
        break_even = {
            pair: F(max(0, surplus), matrix.den) for pair, (_, _, surplus) in matrix.entries.items()
        }
        cases += [(inst, None), (inst, PaymentSchedule(break_even))]
    odd = _odd_id_market()
    no_shares = MarketInstance(
        canonical.network,
        canonical.travelers,
        tuple(dataclasses.replace(v, cost_shares={}) for v in canonical.vehicles),
    )
    cases += [
        (odd, None),
        (odd, PaymentSchedule({(t.id, "V\n"): F(7, 3) for t in odd.travelers})),
        (no_shares, None),
        (canonical, PaymentSchedule({})),
    ]
    for inst, payments in cases:
        assert serialize_document(inst, payments) == _reference_document(inst, payments)
    assert "\\u00e9" in serialize_document(odd)
    # str() of an int past the digit limit raises, and so does the writer
    big = dataclasses.replace(canonical.travelers[0], v_max=F(10**4300))
    huge = dataclasses.replace(canonical, travelers=(big, canonical.travelers[1]))
    for write in (serialize_document, _reference_document):
        with pytest.raises(ValueError, match="4300"):
            write(huge)


def test_parse_rejects_floats(canonical):
    raw = json.loads(serialize_document(canonical))
    raw["travelers"][0]["v_max"] = 10.0
    with pytest.raises(ValidationError, match="exact number"):
        parse_document(json.dumps(raw))


def test_parse_rejects_wrong_schema_version(canonical):
    raw = json.loads(serialize_document(canonical))
    raw["schema_version"] = 2
    with pytest.raises(ValidationError, match="schema_version"):
        parse_document(json.dumps(raw))


def test_parse_reports_all_errors_at_once(canonical):
    raw = json.loads(serialize_document(canonical))
    raw["travelers"][0]["destination"] = raw["travelers"][0]["origin"]
    raw["travelers"][1]["v_min"] = 0.5
    with pytest.raises(ValidationError) as exc:
        parse_document(json.dumps(raw))
    messages = "\n".join(exc.value.errors)
    assert "origin equals destination" in messages
    assert "exact number" in messages


def test_parse_reports_every_malformed_entry_in_document_order(canonical):
    """One document breaks each shape check on the entity lists, the
    network edges and a traveler's or vehicle's fields; every error is
    reported, with its own text, in document order."""
    raw = json.loads(serialize_document(canonical))
    raw["network"]["edges"].append(["e9", "A"])
    t1, t2 = raw["travelers"]
    t1.update(vmax="9", inconvenience=["V1"])
    t2["origin"] = 5
    raw["travelers"] += ["T3", {**t1, "id": 7}]
    v1 = raw["vehicles"][0]
    raw["vehicles"] += [{**v1, "id": "V2", "route": "e1"}, {**v1, "id": "V3", "route": ["e1", 2]}]
    v1.update(capcity=2, operating_cost="x")
    with pytest.raises(ValidationError) as exc:
        parse_document(json.dumps(raw))
    assert exc.value.errors == [
        "network: edge entry must be [id, tail, head] strings, got ['e9', 'A']",
        "traveler 'T1': unknown key 'vmax'",
        "traveler 'T1': inconvenience: expected object, got list",
        "traveler 'T2': origin or destination 5 is not a string",
        "travelers[2]: expected object, got string",
        "travelers[3]: id: expected string, got number",
        "vehicle 'V1': unknown key 'capcity'",
        "vehicle 'V1': operating_cost: not an exact number: 'x' (use \"p/q\" strings)",
        "vehicle 'V2': route: expected list, got string",
        "vehicle 'V2': route: must contain at least one edge",
        "vehicle 'V3': route edge 2 is not a string",
    ]


def test_parse_rejects_dangling_edge(canonical):
    raw = json.loads(serialize_document(canonical))
    raw["network"]["edges"].append(["e9", "A", "Z"])
    with pytest.raises(ValidationError, match="head"):
        parse_document(json.dumps(raw))


def _vehicle(**fields):
    return lambda raw: raw["vehicles"][0].update(fields)


def _traveler(**fields):
    return lambda raw: raw["travelers"][0].update(fields)


def _document(**sections):
    return lambda raw: raw.update(sections)


def _payment_without_inconvenience(raw):
    """T1 loses its inconvenience entry for V1, so the pair is not
    compatible, but the payments still price it."""
    raw["travelers"][0]["inconvenience"] = {}
    raw["payments"] = {"T1": {"V1": "5"}}


def _negative_explicit_share(raw):
    """Explicit mode, with V1's share for T1 below zero."""
    raw["options"]["cost_share_mode"] = "explicit"
    raw["vehicles"][0]["cost_shares"] = {"T1": "-1", "T2": "2"}


def _payment_off_route(raw):
    """A second vehicle V2 drives B->C only, which misses T1's A->C trip;
    the payments price T1 on both vehicles."""
    raw["vehicles"].append({**raw["vehicles"][0], "id": "V2", "route": ["e2"]})
    raw["travelers"][0]["inconvenience"]["V2"] = "0"
    raw["payments"] = {"T1": {"V1": "3", "V2": "1"}}


MALFORMED = [
    pytest.param(_vehicle(capacity="2"), r"capacity '2' is not an integer", id="capacity-string"),
    pytest.param(_vehicle(capacity=2.5), r"capacity 2.5 is not an integer", id="capacity-float"),
    pytest.param(_vehicle(capacity=True), r"capacity True is not an integer", id="capacity-bool"),
    pytest.param(
        _document(schema_version=True),
        r"^document: schema_version must be 1, got True$",
        id="schema-version-bool",
    ),
    pytest.param(
        _document(schema_version=1.0),
        r"^document: schema_version must be 1, got 1.0$",
        id="schema-version-float",
    ),
    pytest.param(
        lambda raw: raw["travelers"].append(raw["travelers"][0]),
        r"^instance: duplicate traveler id 'T1'$",
        id="duplicate-traveler",
    ),
    pytest.param(
        lambda raw: raw["vehicles"].append(raw["vehicles"][0]),
        r"^instance: duplicate vehicle id 'V1'$",
        id="duplicate-vehicle",
    ),
    pytest.param(
        _document(options={"cost_share_mode": "per_ride"}),
        r"^instance: unknown cost_share_mode 'per_ride'$",
        id="unknown-cost-share-mode",
    ),
    pytest.param(
        _negative_explicit_share,
        r"^vehicle 'V1': cost share for traveler 'T1' negative$",
        id="negative-explicit-share",
    ),
    pytest.param(
        lambda raw: raw["travelers"].__setitem__(0, "T1"),
        r"^travelers\[0\]: expected object, got string$",
        id="traveler-string",
    ),
    pytest.param(
        lambda raw: raw.update(vehicles={"V1": raw["vehicles"][0]}),
        r"^vehicles: expected list, got object$",
        id="vehicles-object",
    ),
    pytest.param(_document(network=[]), r"^network: expected object, got list$", id="network-list"),
    pytest.param(_document(options=[]), r"^options: expected object, got list$", id="options-list"),
    pytest.param(
        _traveler(inconvenience=["V1"]),
        r"^traveler 'T1': inconvenience: expected object, got list$",
        id="inconvenience-list",
    ),
    pytest.param(
        _vehicle(cost_shares=[]),
        r"^vehicle 'V1': cost_shares: expected object, got list$",
        id="cost-shares-list",
    ),
    pytest.param(_vehicle(route=5), r"^vehicle 'V1': route: expected list, got number$", id="route-number"),
    pytest.param(
        _document(payments={"T1": "3"}),
        r"^payments: \['T1'\]: expected object, got string$",
        id="payments-row-string",
    ),
    pytest.param(
        lambda raw: raw["network"]["vertices"].append([1]),
        r"^network: vertex \[1\] is not a string$",
        id="vertex-list",
    ),
    pytest.param(
        lambda raw: raw["network"]["vertices"].append(5),
        r"^network: vertex 5 is not a string$",
        id="vertex-number",
    ),
    pytest.param(
        lambda raw: raw["travelers"][0].pop("id"),
        r"^travelers\[0\]: id: expected string, got null$",
        id="traveler-id-missing",
    ),
    pytest.param(
        _traveler(id=5), r"^travelers\[0\]: id: expected string, got number$", id="traveler-id-number"
    ),
    pytest.param(
        _document(payments={"T9": {"V1": "1"}}),
        r"^payments: unknown traveler id 'T9'$",
        id="payment-unknown-traveler",
    ),
    pytest.param(
        _document(payments={"T1": {"V9": "1"}}),
        r"^payments: \['T1'\]: unknown vehicle id 'V9'$",
        id="payment-unknown-vehicle",
    ),
    pytest.param(
        _payment_without_inconvenience,
        r"^payments: pair \('T1', 'V1'\) is not compatible$",
        id="payment-no-inconvenience-entry",
    ),
    pytest.param(
        _payment_off_route,
        r"^payments: pair \('T1', 'V2'\) is not compatible$",
        id="payment-route-misses-trip",
    ),
    pytest.param(
        lambda raw: raw["travelers"][0]["inconvenience"].update(V9="1"),
        r"^traveler 'T1': inconvenience: unknown vehicle id 'V9'$",
        id="inconvenience-unknown-vehicle",
    ),
    pytest.param(
        _vehicle(cost_shares={"T1": "1", "T9": "1"}),
        r"^vehicle 'V1': cost_shares: unknown traveler id 'T9'$",
        id="cost-shares-unknown-traveler",
    ),
    pytest.param(
        _vehicle(operating_cost="-1"),
        r"^vehicle 'V1': operating cost must be nonnegative$",
        id="entity-prefix-once",
    ),
    pytest.param(
        _traveler(v_max="1e5000"),
        r"^traveler 'T1': v_max: '1e5000' needs more than 4300 digits$",
        id="money-exponent-too-large",
    ),
    pytest.param(
        _traveler(v_max="1e-5000"),
        r"^traveler 'T1': v_max: '1e-5000' needs more than 4300 digits$",
        id="money-exponent-too-small",
    ),
    pytest.param(
        _traveler(v_max="1" * 4301),
        r"^traveler 'T1': v_max: '1{4301}' needs more than 4300 digits$",
        id="money-integer-too-long",
    ),
    # a misspelt key is an error at every level, never silently dropped
    pytest.param(
        _document(payment={"T1": {"V1": "3"}}),
        r"^document: unknown key 'payment'$",
        id="unknown-document-key",
    ),
    pytest.param(
        lambda raw: raw["network"].update(edge=[]),
        r"^network: unknown key 'edge'$",
        id="unknown-network-key",
    ),
    pytest.param(
        _traveler(vmax="9"), r"^traveler 'T1': unknown key 'vmax'$", id="unknown-traveler-key"
    ),
    pytest.param(
        _vehicle(capcity=2), r"^vehicle 'V1': unknown key 'capcity'$", id="unknown-vehicle-key"
    ),
    pytest.param(
        _document(options={"cost_share_mode": "per_seat", "mode": "explicit"}),
        r"^options: unknown key 'mode'$",
        id="unknown-options-key",
    ),
]


@pytest.mark.parametrize("mutate, message", MALFORMED)
def test_malformed_document_is_a_validation_error(canonical, tmp_path, capsys, mutate, message):
    raw = json.loads(serialize_document(canonical))
    mutate(raw)
    text = json.dumps(raw)
    with pytest.raises(ValidationError) as exc:
        parse_document(text)
    assert any(re.search(message, m) for m in exc.value.errors), exc.value.errors
    path = tmp_path / "malformed.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert any(re.search(message, line.removeprefix("error: ")) for line in err), err


def test_unknown_ids_are_reported_after_both_sections(canonical):
    """An inconvenience or cost_shares id must name an entity of the
    document, in either cost-share mode.  An entity with an error of its
    own still has a known id, so it draws no second message."""
    raw = json.loads(serialize_document(canonical))
    raw["options"]["cost_share_mode"] = "explicit"
    raw["travelers"][1]["inconvenience"].update({"V9": "1", "": "0"})
    raw["vehicles"][0]["cost_shares"] = {"T1": "1", "T2": "1", "T0": "1"}
    raw["vehicles"].append({**raw["vehicles"][0], "id": "V2", "capacity": 0, "cost_shares": {}})
    raw["travelers"][0]["inconvenience"]["V2"] = "1"
    with pytest.raises(ValidationError) as exc:
        parse_document(json.dumps(raw))
    assert exc.value.errors == [
        "vehicle 'V2': capacity must be >= 1",
        "traveler 'T2': inconvenience: unknown vehicle id 'V9'",
        "traveler 'T2': inconvenience: unknown vehicle id ''",
        "vehicle 'V1': cost_shares: unknown traveler id 'T0'",
    ]


def test_payment_errors_keep_their_text_and_document_order(canonical, tmp_path, capsys):
    """Unknown travelers, unknown vehicles, incompatible pairs and malformed
    values among the payments are each reported with their own message, in
    document order, within a row and across rows."""
    raw = json.loads(serialize_document(canonical))
    # V2 drives B->C only, which misses T1's A->C trip
    raw["vehicles"].append({**raw["vehicles"][0], "id": "V2", "route": ["e2"]})
    raw["travelers"][0]["inconvenience"]["V2"] = "0"
    raw["payments"] = {
        "T1": {"V9": "1", "V1": "x", "V2": "1"},
        "T0": {"V1": "1"},
        "T2": {"V1": 2.5, "V7": "1", "V2": "2"},
    }
    errors = [
        "payments: ['T1']: unknown vehicle id 'V9'",
        "payments: ['T1']['V1']: not an exact number: 'x' (use \"p/q\" strings)",
        "payments: pair ('T1', 'V2') is not compatible",
        "payments: unknown traveler id 'T0'",
        "payments: ['T2']['V1']: not an exact number: 2.5 (use \"p/q\" strings)",
        "payments: ['T2']: unknown vehicle id 'V7'",
        "payments: pair ('T2', 'V2') is not compatible",
    ]
    with pytest.raises(ValidationError) as exc:
        parse_document(json.dumps(raw))
    assert exc.value.errors == errors
    path = tmp_path / "payments.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {m}" for m in errors]


def _priced_market():
    """The canonical market plus T3 (A->B) and T4 (A->C) on V1, and V2,
    which drives B->C only and so misses T1's trip, though T1 names it: a
    fully priced document of it, as a dict."""
    net = Network(frozenset("ABC"), (Edge("e1", "A", "B"), Edge("e2", "B", "C")))
    v1 = Vehicle("V1", Route(("e1", "e2")), capacity=2, operating_cost=F(4))
    v2 = Vehicle("V2", Route(("e2",)), capacity=1, operating_cost=F(1))
    travelers = (
        Traveler("T1", ODPair("A", "C"), F(10), F(1), {"V1": F(2), "V2": F(0)}),
        Traveler("T2", ODPair("B", "C"), F(6), F(0), {"V1": F(0)}),
        Traveler("T3", ODPair("A", "B"), F(5), F(0), {"V1": F(1)}),
        Traveler("T4", ODPair("A", "C"), F(7), F(0), {"V1": F(1)}),
    )
    inst = MarketInstance(net, travelers, (v1, v2))
    pairs = [("T1", "V1"), ("T2", "V1"), ("T3", "V1"), ("T4", "V1")]
    prices = PaymentSchedule(dict(zip(pairs, (F(3), F(2), F(5, 2), F(4)))))
    return json.loads(serialize_document(inst, prices))


def _negatives_out_of_table_order(payments):
    payments["T1"]["V1"], payments["T3"]["V1"] = "-2", -1
    for tid in ("T2", "T1"):
        payments[tid] = payments.pop(tid)  # the rows now read T3, T4, T2, T1


#: one problem among the payments of ``_priced_market``'s document, and the
#: messages it draws: each alone sends the section past the walk of the pair table
PAYMENT_PROBLEMS = [
    (lambda p: p.update(T0={}), ["payments: unknown traveler id 'T0'"]),
    (lambda p: p.update(T1=5), ["payments: ['T1']: expected object, got number"]),
    (lambda p: p["T1"].update(V9="1"), ["payments: ['T1']: unknown vehicle id 'V9'"]),
    (lambda p: p["T1"].update(V2="1"), ["payments: pair ('T1', 'V2') is not compatible"]),
    (
        lambda p: p["T1"].update(V1=None),
        ["payments: ['T1']['V1']: not an exact number: None (use \"p/q\" strings)"],
    ),
    (
        lambda p: p["T3"].update(V1="1/x"),
        ["payments: ['T3']['V1']: not an exact number: '1/x' (use \"p/q\" strings)"],
    ),
    (lambda p: p["T2"].update(V1=2), []),
    (lambda p: p["T2"].update(V1="-1"), ["payment for pair ('T2', 'V1') is negative"]),
    (
        _negatives_out_of_table_order,
        ["payment for pair ('T3', 'V1') is negative", "payment for pair ('T1', 'V1') is negative"],
    ),
]


@pytest.mark.parametrize("mutate, errors", PAYMENT_PROBLEMS)
def test_each_payment_problem_alone_keeps_its_text(mutate, errors, tmp_path, capsys):
    """Each problem of an otherwise fully priced document, alone, is named
    with the message it has always had; a JSON integer is a price."""
    raw = _priced_market()
    mutate(raw["payments"])
    text = json.dumps(raw)
    if not errors:
        assert parse_document(text).payments[("T2", "V1")] == 2
        return
    with pytest.raises(ValidationError) as exc:
        parse_document(text)
    assert exc.value.errors == errors
    path = tmp_path / "payments.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {m}" for m in errors]


@pytest.mark.parametrize("seed", range(4))
def test_payment_errors_follow_the_document_in_any_row_order(seed):
    """Every payment problem is named in document order, with the message it
    has always had, however the rows and their entries are ordered: the
    per-entry reading that words them does not follow the pair table."""
    raw = _priced_market()
    raw["payments"] = {
        "T1": {"V9": "1", "V1": None, "V2": "1", "V3": 4},
        "T0": {"V1": "1"},
        "T2": {"V1": "1/x"},
        "T3": ["5"],
        "T4": {"V1": 2},
    }
    # (traveler, vehicle) of each entry, (traveler, None) of each row, in error
    problems = {
        ("T1", "V9"): "payments: ['T1']: unknown vehicle id 'V9'",
        ("T1", "V1"): "payments: ['T1']['V1']: not an exact number: None (use \"p/q\" strings)",
        ("T1", "V2"): "payments: pair ('T1', 'V2') is not compatible",
        ("T1", "V3"): "payments: ['T1']: unknown vehicle id 'V3'",
        ("T0", None): "payments: unknown traveler id 'T0'",
        ("T2", "V1"): "payments: ['T2']['V1']: not an exact number: '1/x' (use \"p/q\" strings)",
        ("T3", None): "payments: ['T3']: expected object, got list",
    }
    rng = random.Random(seed)
    rows = list(raw["payments"].items())
    if seed:
        rng.shuffle(rows)
        rows = [(t, dict(rng.sample(list(r.items()), len(r))) if type(r) is dict else r) for t, r in rows]
    raw["payments"] = dict(rows)
    expected = []
    for tid, row in rows:
        if (tid, None) in problems:
            expected.append(problems[(tid, None)])
            continue
        expected += [problems[(tid, vid)] for vid in row if (tid, vid) in problems]
    with pytest.raises(ValidationError) as exc:
        parse_document(json.dumps(raw))
    assert exc.value.errors == expected


@pytest.mark.parametrize("shape", ["full", "partial", "shuffled"])
def test_parsed_schedule_keeps_the_pair_tables_keys_and_order(shape):
    """A parsed schedule is keyed by the pair table's own key tuples, in table
    order, whatever the order of the document's rows; it equals the
    schedule read entry by entry in document order."""
    inst = generate_instance(5, n=40, m=8)
    den = inst.compatibility.den
    prices = {p: F(s, den) if s > 0 else F(0) for p, (_, _, s) in inst.compatibility.entries.items()}
    raw = json.loads(serialize_document(inst, PaymentSchedule(prices)))
    rng = random.Random(shape)
    rows = list(raw["payments"].items())
    if shape == "partial":
        rows = [(t, {v: x for v, x in r.items() if rng.random() < 0.6}) for t, r in rows]
    if shape == "shuffled":
        rng.shuffle(rows)
        rows = [(t, dict(rng.sample(list(r.items()), len(r)))) for t, r in rows]
    raw["payments"] = dict(rows)
    doc = parse_document(json.dumps(raw))
    entries, table = doc.payments.entries, doc.instance.compatibility.entries
    priced = [p for p in table if p in entries]
    assert len(priced) == len(entries) and all(map(operator.is_, entries, priced))
    assert (len(priced) == len(table)) == (shape != "partial")
    in_document_order = PaymentSchedule(
        {(tid, vid): exact_number(x) for tid, row in rows for vid, x in row.items()}
    )
    assert doc.payments == in_document_order
    # ids sort as strings in the document, T10 before T2: the orders differ
    assert list(in_document_order.entries) != list(entries)


def test_payment_values_stay_type_strict():
    """``true`` and ``1.0`` equal ``1``, and ``null`` prices nothing, but
    none is an amount: a payments section that mixes them with ``1``,
    ``"1"`` and ``"-1"`` names each bad value where it stands, in document
    order, however the values repeat; with no bad value left, the negative
    payments are named.  ``1`` and ``"1"`` price alike."""
    inst = generate_instance(2, n=8, m=3)
    raw = json.loads(serialize_document(inst))

    def parsed(values, reverse=False):
        rows = {}
        for k, (tid, vid) in enumerate(inst.compatible_pairs()):
            rows.setdefault(tid, {})[vid] = values[k % len(values)]
        rows = list(rows.items())
        if reverse:
            rows = [(tid, dict(reversed(row.items()))) for tid, row in reversed(rows)]
        raw["payments"] = dict(rows)
        text = json.dumps(raw)
        try:
            return parse_document(text).payments
        except ValidationError as exc:
            return exc.errors

    def bad(*where):
        return [
            f"payments: [{tid!r}][{vid!r}]: not an exact number: {x!r} (use \"p/q\" strings)"
            for tid, vid, x in where
        ]

    mixed = [1, True, 1.0, "1", None, "-1"]
    first = [
        ("T1", "V0", True), ("T2", "V0", 1.0), ("T3", "V2", None),
        ("T5", "V0", True), ("T6", "V0", 1.0), ("T7", "V2", None),
    ]  # fmt: skip
    assert parsed(mixed) == bad(*first)
    assert parsed(mixed, reverse=True) == bad(*reversed(first))
    ones = [("T1", "V0"), ("T3", "V1"), ("T4", "V1"), ("T5", "V0"), ("T7", "V1")]
    assert parsed([1, True]) == bad(*[(tid, vid, True) for tid, vid in ones])
    assert parsed(["1", 1.0]) == bad(*[(tid, vid, 1.0) for tid, vid in ones])
    negative = [("T0", "V0"), ("T2", "V0"), ("T3", "V2"), ("T4", "V2"), ("T6", "V0"), ("T7", "V2")]
    expected = [f"payment for pair {pair} is negative" for pair in negative]
    assert parsed(["-1", 1]) == expected
    assert parsed(["-1", 1], reverse=True) == expected[::-1]
    assert parsed([1, "1"]) == PaymentSchedule(dict.fromkeys(inst.compatible_pairs(), F(1)))


def _explicit_shares(inst):
    """``inst`` in explicit mode, each vehicle charging every traveler who
    names it a share of its cost, some of them above the per-seat share."""
    named = {v.id: [t.id for t in inst.travelers if v.id in t.inconvenience] for v in inst.vehicles}
    vehicles = tuple(
        dataclasses.replace(
            v,
            cost_shares={t: v.operating_cost / (v.capacity + k % 2) for k, t in enumerate(named[v.id])},
        )
        for v in inst.vehicles
    )
    return MarketInstance(inst.network, inst.travelers, vehicles, cost_share_mode="explicit")


def _written(x, rng):
    """The money ``x`` as a document may write it: a JSON integer, or an
    integer, decimal, exponent or ``p/q`` string, unreduced at times."""
    p, q = x.numerator, x.denominator
    forms = [f"{p}/{q}", f"{p * 3}/{q * 3}"]
    k = next((k for k in range(12) if 10**k % q == 0), None)
    if k is not None:  # a terminating decimal
        digits = str(p * 10**k // q).rjust(k + 1, "0")
        forms += [f"{digits}e-{k}", f"{digits[: len(digits) - k]}.{digits[len(digits) - k :]}"]
    if q == 1:
        forms += [p, str(p), f"{p}E0"]
    return rng.choice(forms)


def test_both_intake_forms_agree():
    """A document parses to the market built from the same ``Fraction``s,
    whatever form its money is written in: equal pair tables (``den``,
    ``entries``, ``v_min``, ``pairs``, ``first``) built without the
    travelers' ``Fraction`` views, then equal instances and reprs.  The
    markets are per-seat and explicit, some degenerate; each has
    inconvenience entries off its pairs, each over a denominator no other
    value has, and a denominator first seen on its last traveler."""
    lifted, off_pairs, forms = 0, 0, Counter()

    def write(x):
        written = _written(F(x), rng)
        forms.update(["int"] if type(written) is int else set(written) & set("eE./"))
        return written

    for seed in range(300):
        rng = random.Random(seed)
        m = 1 + seed % 4
        inst = generate_instance(9100 + seed, n=m + 1 + seed % 6, m=m, degenerate=seed % 5 == 0)
        served = {v.id: stops(route_vertex_sequence(inst.network, v.route)) for v in inst.vehicles}
        travelers = []
        for k, t in enumerate(inst.travelers):
            off = {
                v: F(1, 101 + 2 * k)
                for v in served
                if v not in t.inconvenience and not serves(served[v], t.od)
            }
            off_pairs += len(off)
            # in id order, as the document writes it
            row = dict(sorted({**t.inconvenience, **off}.items()))
            travelers.append(dataclasses.replace(t, inconvenience=row))
        travelers[-1] = dataclasses.replace(travelers[-1], v_max=travelers[-1].v_max + F(1, 97))
        expected = MarketInstance(inst.network, travelers, inst.vehicles)
        if seed % 3 == 2:
            expected = _explicit_shares(expected)
        raw = json.loads(serialize_document(expected))
        for t in raw["travelers"]:
            for key in ("v_max", "v_min"):
                t[key] = write(t[key])
            t["inconvenience"] = {v: write(x) for v, x in t["inconvenience"].items()}
        for v in raw["vehicles"]:
            v["operating_cost"] = write(v["operating_cost"])
            if "cost_shares" in v:
                v["cost_shares"] = {t: write(x) for t, x in v["cost_shares"].items()}
        parsed = parse_document(json.dumps(raw)).instance
        got, want = parsed.compatibility, expected.compatibility
        views = {"v_max", "v_min", "inconvenience"}
        assert all(vars(t).keys().isdisjoint(views) for t in parsed.travelers)
        assert (got.den, got.entries, got.v_min, got.pairs, got.first) == (
            want.den, want.entries, want.v_min, want.pairs, want.first
        )
        assert got.den % 97 == 0
        assert parsed == expected and repr(parsed) == repr(expected)
        first, last = parsed.travelers[0].ints[0], parsed.travelers[-1].ints[0]
        lifted += last % 97 == 0 and first % 97 != 0
    assert lifted == 300 and off_pairs > 300
    assert min(forms[form] for form in ("int", "e", "E", ".", "/")) > 100


def test_a_new_prime_per_traveler_keeps_each_traveler_at_its_own_scale():
    """A market whose travelers each add ``1/p`` to ``v_max``, ``p`` an odd
    prime of their own, parses to the market built from the same
    ``Fraction``s: equal pair tables and reprs.  Each parsed traveler is
    over its own small denominator, not over the product of every prime
    read before it; only the table's ``den`` is their least common
    multiple."""
    inst = generate_instance(5, 300, 60)
    primes = [p for p in range(3, 2000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    travelers = [
        # in id order, as the document writes it
        dataclasses.replace(t, v_max=t.v_max + F(1, p), inconvenience=dict(sorted(t.inconvenience.items())))
        for t, p in zip(inst.travelers, primes)
    ]
    expected = MarketInstance(inst.network, travelers, inst.vehicles)
    parsed = parse_document(serialize_document(expected)).instance
    got, want = parsed.compatibility, expected.compatibility
    assert (got.den, got.entries) == (want.den, want.entries)
    assert got.den.bit_length() > 2000
    assert repr(parsed) == repr(expected)
    assert max(t.ints[0].bit_length() for t in parsed.travelers) <= 64


def test_a_scale_never_changes_a_value_it_holds():
    """``_Scaled`` keeps the ``den`` it is built with: a money string whose
    denominator does not divide it misses, as a non-money value does, and
    leaves every held value and ``den`` as they were."""
    memo = {}
    scaled = _Scaled(memo, 6)
    assert (scaled["1/2"], scaled["2"], scaled["0.5"]) == (3, 12, 3)
    for miss in ("1/4", "1/5", "x", 1, True, 1.0):
        with pytest.raises(KeyError):
            scaled[miss]
    assert scaled == {"1/2": 3, "2": 12, "0.5": 3} and scaled.den == 6
    assert memo["1/4"] == (1, 4) and "x" not in memo
    assert _Scaled(memo, 12)["1/4"] == 3


def test_every_form_of_a_schedule_agrees():
    """A schedule built in the pair table's scale, by the parser from
    complete or shuffled rows, by the synthesis or as the CLI's break-even
    default, agrees with ``PaymentSchedule`` of its entries as a dict,
    keyed by the table's tuples or by equal ones in another order: equal
    entries, equal schedules, the same ``validate_schedule`` values, and
    equal check and profit reports.  Parsed partial rows price exactly
    their pairs, the CLI fills the rest with the break-even default, and an
    override replaces one payment, as does a payment over a new denominator
    written in the document, which lifts every payment read before it."""
    forms_seen = 0
    for seed in range(12):
        inst = generate_instance(7700 + seed, n=5 + 3 * seed, m=2 + seed % 3, degenerate=seed % 3 == 1)
        if seed % 3 == 2:
            inst = _explicit_shares(inst)
        matrix = inst.compatibility
        a = solve_optimal_assignment(inst, with_certificate=False).assignment
        synth = synthesize_stable_payments(inst, a)
        default = cli._resolve_payments(inst, a, None, [])
        even = {p: F(max(0, s), matrix.den) for p, (_, _, s) in matrix.entries.items()}
        assert default.entries == even
        rng = random.Random(seed)
        for built in [default] + [synth.schedule] * synth.feasible:
            entries = built.entries
            raw = json.loads(serialize_document(inst, built))
            rows = list(raw["payments"].items())
            rng.shuffle(rows)
            shuffled = {t: dict(rng.sample(list(r.items()), len(r))) for t, r in rows}
            docs = [parse_document(json.dumps(r)) for r in (raw, {**raw, "payments": shuffled})]
            assert all(d.payments.pairs is d.instance.compatibility.pairs for d in docs)
            in_scale = [built, *(d.payments for d in docs)]
            items = list(entries.items())
            rng.shuffle(items)
            as_dict = [
                PaymentSchedule(dict(entries)),
                PaymentSchedule({(p[0], p[1]): x for p, x in items}),
            ]
            expected = [entries[p] for p in matrix.pairs]
            reports = set()
            # each parsed schedule also on its own document's table, read as it is
            read = [(inst, t) for t in in_scale + as_dict] + [(d.instance, d.payments) for d in docs]
            for market, t in read:
                assert t == built and t.entries == entries
                den, ints = validate_schedule(market, t)
                assert den % matrix.den == 0 and [F(x, den) for x in ints] == expected
                reports.add(repr((
                    check_payments(market, a, t),
                    check_payments(market, a, t, classic_core=True),
                    compute_profits(market, a, t),
                )))  # fmt: skip
                forms_seen += 1
            assert len(reports) == 1
            assert built.pairs is matrix.pairs
            assert all([F(x, t.den) for x in t.ints] == [entries[p] for p in t.pairs] for t in in_scale)
            # partial rows: the parsed schedule prices just its entries, in table order
            kept = {t: {v: x for v, x in r.items() if rng.random() < 0.5} for t, r in rows}
            partial = parse_document(json.dumps({**raw, "payments": kept})).payments
            priced = {(t, v) for t, r in kept.items() for v in r}
            assert list(partial.pairs) == [p for p in matrix.pairs if p in priced]
            assert partial == PaymentSchedule({p: entries[p] for p in priced})
            filled = cli._resolve_payments(inst, a, partial, [])
            assert filled == PaymentSchedule({**even, **partial.entries})
            pair = matrix.pairs[-1]
            moved = cli._resolve_payments(inst, a, partial, [(pair, F(1, 7))])
            assert moved == PaymentSchedule({**filled.entries, pair: F(1, 7)})
            assert moved.pairs is matrix.pairs and moved.den % 7 == 0
            # the same payment in the document, read last: every one read before it is lifted
            last = {**raw["payments"], pair[0]: {**raw["payments"][pair[0]], pair[1]: "1/7"}}
            lifted = parse_document(json.dumps({**raw, "payments": last})).payments
            assert lifted.pairs == matrix.pairs and lifted.den % 7 == 0
            assert [F(x, lifted.den) for x in lifted.ints] == [*expected[:-1], F(1, 7)]
    assert forms_seen > 100


#: a payment value that is no amount, or a negative one; each makes the section invalid
_BAD_PAYMENTS = {
    "null": None,
    "list": ["1"],
    "float": 1.5,
    "bool": True,
    "negative": "-3/2",
    "huge": "1" + "0" * MAX_DIGITS,
}


@st.composite
def _priced_sections(draw):
    """``(inst, payments, bad)``: a generated market, per-seat or explicit,
    and its fully priced payments section with rows or entries dropped or
    shuffled, a JSON integer for a string, and zero to three faults
    (``bad``): a value that is no amount, an unknown traveler or vehicle
    id, or an incompatible pair."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n, m = draw(st.integers(2, 9)), draw(st.integers(1, 3))
    inst = generate_instance(draw(st.integers(0, 60)), n=n, m=m)
    if draw(st.booleans()):
        inst = _explicit_shares(inst)
    pays = {p: F(rng.randint(0, 30), rng.choice((1, 3, 7))) for p in inst.compatible_pairs()}
    section = json.loads(serialize_document(inst, PaymentSchedule(pays)))["payments"]
    if draw(st.booleans()):  # partial rows
        section = {t: {v: x for v, x in r.items() if rng.random() < 0.6} for t, r in section.items()}
    if draw(st.booleans()):  # shuffled rows
        rows = [(t, list(r.items())) for t, r in section.items()]
        rng.shuffle(rows)
        section = {t: dict(rng.sample(r, len(r))) for t, r in rows}
    entries = [(t, v) for t, row in section.items() for v in row]
    if entries and draw(st.booleans()):
        tid, vid = rng.choice(entries)
        section[tid][vid] = rng.randint(0, 9)
    faults = ["traveler", "vehicle", "incompatible", *_BAD_PAYMENTS]
    bad = False
    for fault in draw(st.lists(st.sampled_from(faults), max_size=3)):
        if fault == "traveler":
            section["T99"], bad = {"V0": "1"}, True
        elif fault == "vehicle" and section:
            section[rng.choice(sorted(section))]["V99"], bad = "1", True
        elif fault == "incompatible":
            known = [(t.id, v.id) for t in inst.travelers for v in inst.vehicles]
            off = [p for p in known if p not in inst.compatibility.entries]
            if off:
                tid, vid = rng.choice(off)
                section.setdefault(tid, {})[vid], bad = "1", True
        elif fault in _BAD_PAYMENTS and entries:
            tid, vid = rng.choice(entries)
            section[tid][vid], bad = _BAD_PAYMENTS[fault], True
    return inst, section, bad


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_priced_sections(), st.integers(0, 2**32))
def test_payment_intake_builds_a_scaled_schedule_or_raises(case, seed):
    """A payments section, valid or mutated, is either parsed to a schedule
    built by ``PaymentSchedule.scaled`` in the pair table's order, its
    ``entries`` view not yet built, that prices exactly the document's
    entries, or rejected with a ``ValidationError``: never read as a dict
    of money.  The CLI merges a parsed schedule with ``--payments``
    overrides and the break-even default in integers, to the schedule a
    merge in ``Fraction``s gives; a complete one without overrides is used
    as it is."""
    inst, section, bad = case
    raw = json.loads(serialize_document(inst))
    raw["payments"] = section
    try:
        t = parse_document(json.dumps(raw)).payments
    except ValidationError:
        assert bad
        return
    assert not bad
    matrix = inst.compatibility
    assert vars(t).keys() == {"pairs", "den", "ints"}
    given = {(tid, vid): exact_number(x) for tid, row in section.items() for vid, x in row.items()}
    assert list(t.pairs) == [p for p in matrix.pairs if p in given]
    assert t.den % matrix.den == 0 and [F(x, t.den) for x in t.ints] == [given[p] for p in t.pairs]
    rng = random.Random(seed)
    pairs = rng.sample(matrix.pairs, min(len(matrix.pairs), rng.randint(0, 2)))
    overrides = [(p, F(rng.randint(0, 20), 5)) for p in pairs]
    a = solve_optimal_assignment(inst, with_certificate=False).assignment
    merged = cli._resolve_payments(inst, a, t, overrides)
    even = {p: F(max(0, s), matrix.den) for p, (_, _, s) in matrix.entries.items()}
    assert merged.pairs is matrix.pairs
    assert merged.entries == {**even, **given, **dict(overrides)}
    assert (merged is t) == (not overrides and t.pairs is matrix.pairs)


def test_an_override_prints_what_the_document_priced_so_prints(tmp_path, capsys):
    """On generated markets, n = 5 to 60, per-seat and explicit, under
    complete and partial priced documents, ``check DOC --payments P=x``
    (bare ``TID=x`` for a rider of the surplus optimum) and ``solve DOC
    --objective paper --payments P=x`` print, in both formats, and exit
    exactly as the same command does on ``DOC`` with ``x`` written into
    its payments."""
    compared = 0
    for seed in range(14):
        n = 5 + seed * 55 // 13
        inst = generate_instance(3700 + seed, n=n, m=1 + n // 6, degenerate=seed % 4 == 1)
        if seed % 2:
            inst = _explicit_shares(inst)
        rng = random.Random(seed)
        pays = {p: F(rng.randint(0, 40), rng.choice((1, 2, 3))) for p in inst.compatible_pairs()}
        raw = json.loads(serialize_document(inst, PaymentSchedule(pays)))
        if seed % 3 == 2:
            raw["payments"] = {
                t: {v: x for v, x in r.items() if rng.random() < 0.5} for t, r in raw["payments"].items()
            }
        a = solve_optimal_assignment(inst, with_certificate=False).assignment
        riders = a.assigned_pairs()
        for (tid, vid), x in (
            (rng.choice(riders), F(rng.randint(0, 60), 11)),
            (rng.choice(inst.compatible_pairs()), F(rng.randint(0, 60), 13)),
        ):
            written = json.loads(json.dumps(raw))
            written["payments"].setdefault(tid, {})[vid] = str(x)
            doc, priced = tmp_path / f"doc-{seed}.json", tmp_path / f"written-{seed}.json"
            doc.write_text(json.dumps(raw))
            priced.write_text(json.dumps(written))
            key = tid if (tid, vid) in riders else f"{tid}:{vid}"
            for command, spec in (
                (["check"], f"{key}={x}"),
                (["solve", "--objective", "paper"], f"{tid}:{vid}={x}"),
            ):
                for fmt in ("text", "machine"):
                    options = [*command[1:], "--format", fmt]
                    status = main([command[0], str(doc), *options, "--payments", spec])
                    out = capsys.readouterr()
                    assert main([command[0], str(priced), *options]) == status, (seed, spec)
                    assert capsys.readouterr() == out, (seed, command, spec)
                    compared += 1
    assert compared == 14 * 2 * 2 * 2


def test_top_level_array_is_a_validation_error(tmp_path, capsys):
    with pytest.raises(ValidationError) as exc:
        parse_document("[]")
    assert exc.value.errors == ["document: top level must be an object"]
    path = tmp_path / "array.json"
    path.write_text("[]")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: document: top level must be an object\n"


def test_parse_syntax_error_has_position():
    with pytest.raises(ValidationError, match="line 1"):
        parse_document("{not json")


def test_repeated_malformed_money_is_reported_at_every_location(canonical, tmp_path, capsys):
    """A malformed or over-long money string is reported wherever it
    appears, in document order, even though a well-formed repeated string
    is converted once per document."""
    raw = json.loads(serialize_document(canonical))
    for traveler in raw["travelers"]:
        traveler["v_min"] = "x1"
        traveler["inconvenience"]["V1"] = "1e9999"
    errors = [
        f"traveler '{tid}': {message}"
        for tid in ("T1", "T2")
        for message in (
            "v_min: not an exact number: 'x1' (use \"p/q\" strings)",
            "inconvenience['V1']: '1e9999' needs more than 4300 digits",
        )
    ]
    with pytest.raises(ValidationError) as exc:
        parse_document(json.dumps(raw))
    assert exc.value.errors == errors
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {m}" for m in errors]


def test_money_and_range_errors_keep_their_order(canonical):
    """Each traveler's money errors come first, in field order, then its
    range errors, whose checks read a malformed value as 0; then the next
    traveler, the vehicles, and last the ids that name no entity.  A
    denominator first seen on a later traveler changes none of it."""
    raw = json.loads(serialize_document(canonical))
    t1, t2 = raw["travelers"]
    t1.update(v_max="x", v_min="1/3", inconvenience={"V1": "3", "V9": "1/0", "V2": "1/3"})
    t2.update(v_max="5/7", v_min=1, inconvenience={"V1": True, "V2": "-1/2"})
    raw["travelers"] += [
        {**t2, "id": "T3", "v_max": "2.5", "v_min": "1e1",
         "inconvenience": {"V1": "1/3", "V2": "3"}},
        {**t2, "id": "T4", "v_max": 9, "v_min": "x", "inconvenience": {"V8": "1/11", "V1": "7e-1"}},
    ]
    v1 = raw["vehicles"][0]
    raw["vehicles"] += [
        {**v1, "id": "V2"},
        {**v1, "id": "V3", "operating_cost": "y", "cost_shares": {"T9": "1/13"}},
    ]
    with pytest.raises(ValidationError) as exc:
        parse_document(json.dumps(raw))
    assert exc.value.errors == [
        "traveler 'T1': v_max: not an exact number: 'x' (use \"p/q\" strings)",
        "traveler 'T1': inconvenience['V9']: not an exact number: '1/0' (use \"p/q\" strings)",
        "traveler 'T1': needs 0 <= v_min <= v_max",
        "traveler 'T1': inconvenience for vehicle 'V1' outside [0, v_max]",
        "traveler 'T1': inconvenience for vehicle 'V2' outside [0, v_max]",
        "traveler 'T2': inconvenience['V1']: not an exact number: True (use \"p/q\" strings)",
        "traveler 'T2': needs 0 <= v_min <= v_max",
        "traveler 'T2': inconvenience for vehicle 'V2' outside [0, v_max]",
        "traveler 'T3': needs 0 <= v_min <= v_max",
        "traveler 'T3': inconvenience for vehicle 'V2' outside [0, v_max]",
        "traveler 'T4': v_min: not an exact number: 'x' (use \"p/q\" strings)",
        "vehicle 'V3': operating_cost: not an exact number: 'y' (use \"p/q\" strings)",
        "traveler 'T4': inconvenience: unknown vehicle id 'V8'",
        "vehicle 'V3': cost_shares: unknown traveler id 'T9'",
    ]


def _money_strings():
    """Nonnegative money strings in every accepted form: integers, ``p/q``
    (unreduced too), decimals, exponents and signs."""
    digits = st.integers(0, 10**6).map(str)
    unsigned = st.one_of(
        digits,
        st.builds("{}/{}".format, digits, st.integers(1, 999)),
        st.builds("{}.{}".format, digits, digits),
        st.builds("{}{}{}".format, digits, st.sampled_from("eE"), st.integers(-20, 20)),
        st.sampled_from(["3/6", ".5", "5.", "007"]),
    )
    return st.one_of(
        st.builds("{}{}".format, st.sampled_from(["", "+"]), unsigned),
        st.sampled_from(["-0", "-0/7", "-0.0e3"]),
    )


def _signed_money_strings():
    """``_money_strings()`` with negative values, leading zeros and
    unreduced ``p/q`` added."""
    unsigned = _money_strings().map(lambda s: s.lstrip("+-"))
    return st.one_of(
        _money_strings(),
        unsigned.map("-{}".format),
        unsigned.map("00{}".format),
        st.builds(
            lambda p, q, k, sign: f"{sign}{p * k}/{q * k}",
            st.integers(0, 10**6),
            st.integers(1, 999),
            st.integers(2, 99),
            st.sampled_from(["", "+", "-"]),
        ),
    )


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_signed_money_strings())
def test_exact_number_equals_fraction_on_the_grammar(value):
    number = exact_number(value)
    assert type(number) is F and number == F(value)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.text(alphabet="0123456789+-/.eE _x\u0663").filter(lambda s: not _NUMBER.fullmatch(s)))
def test_exact_number_rejects_strings_outside_the_grammar(value):
    with pytest.raises(ValueError, match="not an exact number"):
        exact_number(value)


def test_exact_number_zero_denominator_is_zero_division():
    with pytest.raises(ZeroDivisionError):
        exact_number("3/0")


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(st.one_of(st.text(alphabet="0123456789+-/.eE _x\u0663"), _signed_money_strings()))
@example("2/4")
@example("-0/7")
@example("3/0")
@example("7e-1")
def test_exact_ratio_is_the_reduced_ratio_of_exact_number(value):
    """``exact_ratio`` reads a string to ``exact_number``'s value in lowest
    terms with a positive denominator, or raises the class it raises."""
    try:
        expected = exact_number(value).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises((ValueError, ZeroDivisionError)) as caught:
            exact_ratio(value)
        assert type(caught.value) is type(exc), value
    else:
        p, q = ratio = exact_ratio(value)
        assert ratio == expected and type(p) is type(q) is int and q > 0, value


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_repeated_money_strings_parse_exactly(data):
    """Every money field of a document drawn from a small pool of strings,
    so that strings repeat, parses to exactly ``Fraction`` of its string."""
    pool = data.draw(st.lists(_money_strings(), min_size=1, max_size=4))
    pick = st.sampled_from(pool)
    travelers = []
    for tid, origin in (("T1", "A"), ("T2", "B")):
        # v_max is the largest of the three, as the traveler rules require
        v_min, phi, v_max = sorted((data.draw(pick) for _ in range(3)), key=F)
        travelers.append({"id": tid, "origin": origin, "destination": "C", "v_max": v_max,
                          "v_min": v_min, "inconvenience": {"V1": phi}})
    vehicle = {"id": "V1", "route": ["e1", "e2"], "capacity": 2,
               "operating_cost": data.draw(pick),
               "cost_shares": {"T1": data.draw(pick), "T2": data.draw(pick)}}
    payments = {"T1": {"V1": data.draw(pick)}, "T2": {"V1": data.draw(pick)}}
    doc = parse_document(json.dumps({
        "schema_version": 1,
        "network": {"vertices": ["A", "B", "C"], "edges": [["e1", "A", "B"], ["e2", "B", "C"]]},
        "travelers": travelers,
        "vehicles": [vehicle],
        "options": {"cost_share_mode": "explicit"},
        "payments": payments,
    }))
    for t, written in zip(doc.instance.travelers, travelers):
        assert (t.v_max, t.v_min, t.inconvenience) == (
            F(written["v_max"]), F(written["v_min"]), {"V1": F(written["inconvenience"]["V1"])}
        )
    (v,) = doc.instance.vehicles
    assert v.operating_cost == F(vehicle["operating_cost"])
    assert v.cost_shares == {tid: F(s) for tid, s in vehicle["cost_shares"].items()}
    assert doc.payments.entries == {(tid, "V1"): F(row["V1"]) for tid, row in payments.items()}


@pytest.mark.parametrize("value", ["1_000", " 3", "\t3", "\u0663", "1 / 2", "\uff13/2"])
def test_money_outside_the_ascii_grammar_exits_2(canonical, tmp_path, capsys, value):
    """Underscores, whitespace and non-ASCII digits are outside the money
    grammar, though some Python versions' ``Fraction`` accepts them: a
    document field and a ``--payments`` value holding one both exit 2."""
    raw = json.loads(serialize_document(canonical))
    raw["travelers"][0]["v_min"] = value
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 2
    message = f"not an exact number: {value!r}"
    assert f"error: traveler 'T1': v_min: {message}" in capsys.readouterr().err
    path.write_text(serialize_document(canonical))
    assert main(["check", str(path), "--payments", f"T1:V1={value}"]) == 2
    assert capsys.readouterr().err == f"error: --payments: {message}\n"


_ONE_PAIR = json.dumps({
    "schema_version": 1,
    "network": {"vertices": ["A", "B"], "edges": [["e1", "A", "B"]]},
    "travelers": [{"id": "T1", "origin": "A", "destination": "B", "v_max": "10", "v_min": "0",
                   "inconvenience": {"V1": "0"}}],
    "vehicles": [{"id": "V1", "route": ["e1"], "capacity": 1, "operating_cost": "0"}],
})


def _parsed_one_pair(mutate):
    raw = json.loads(_ONE_PAIR)
    mutate(raw)
    return parse_document(json.dumps(raw))


def _money_places(value):
    """``value`` as T1's ``v_max``, as V1's operating cost and as T1's
    payment for V1: per place, a library reader and a document reader,
    each returning the amount read."""
    od, pair = ODPair("A", "B"), ("T1", "V1")
    return [
        (lambda: Traveler("T1", od, value, 0, {"V1": 0}).v_max,
         lambda: _parsed_one_pair(_traveler(v_max=value)).instance.travelers[0].v_max),
        (lambda: Vehicle("V1", Route(("e1",)), 1, value).operating_cost,
         lambda: _parsed_one_pair(_vehicle(operating_cost=value)).instance.vehicles[0].operating_cost),
        (lambda: PaymentSchedule({pair: value})[pair],
         lambda: _parsed_one_pair(_document(payments={"T1": {"V1": value}})).payments[pair]),
    ]  # fmt: skip


def _read(reader):
    """What ``reader()`` reads, or ``None`` when it refuses the money."""
    try:
        return reader()
    except (ValueError, ZeroDivisionError):  # ValidationError is a ValueError
        return None


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.text(alphabet="0123456789+-/.eE _x\u0663"))
@example(" 3")
@example("1_000")
@example("\u0663")
@example("3/2 ")
def test_the_library_reads_money_strings_as_documents_do(value):
    """``Traveler``, ``Vehicle`` and ``PaymentSchedule`` accept a money
    string exactly when a document field holding it parses, with the same
    value: both read it by the one grammar, ``exact_number``'s."""
    for library, document in _money_places(value):
        assert _read(library) == _read(document), value


@pytest.mark.parametrize("value", [" 3", None, [], Decimal("1"), "3/0"], ids=repr)
def test_the_library_refuses_money_as_a_validation_error(value):
    """``Traveler``, ``Vehicle`` and ``PaymentSchedule`` word every money
    value they refuse as a :class:`ValidationError`, a zero denominator
    and a value of no money type too."""
    for library, _ in _money_places(value):
        with pytest.raises(ValidationError, match=f"money value {re.escape(repr(value))} is not"):
            library()


@pytest.mark.parametrize(
    "value",
    [
        "1" + "0" * MAX_DIGITS,
        "1/" + "7" * (MAX_DIGITS + 1),
        f"1e{MAX_DIGITS}",
        pytest.param("1" * (MAX_DIGITS + 1) + ".5", id="decimal-4302-digits"),
        pytest.param("0." + "1" * (MAX_DIGITS + 1), id="fraction-part-4301-digits"),
        pytest.param("1e" + "9" * (MAX_DIGITS + 1), id="exponent-4301-digits"),
    ],
)
def test_money_past_the_digit_limit_is_a_validation_error_both_ways(value):
    for library, document in _money_places(value):
        for reader in (library, document):
            with pytest.raises(ValidationError, match=f"needs more than {MAX_DIGITS} digits"):
                reader()


def test_duplicate_keys_are_a_validation_error(canonical, tmp_path, capsys):
    """An object that repeats a key is malformed: each repeated key is
    named once, innermost objects first, where ``json.loads`` alone would
    keep its last value, and the repeat hides every other error but a
    syntax error.  Each placement in the grammar, and one the grammar never
    expects, gives the same list."""
    base = serialize_document(canonical, PaymentSchedule({("T1", "V1"): F(3)}))
    placements = [
        # (replacements in the document's text, the errors they cause)
        ([('"v_max": "10"', '"v_max": "10", "v_max": "9"'), ('"V1": "3"', '"V1": "3", "V1": "4"')],
         ["v_max", "V1"]),
        ([('"schema_version": 1,', '"schema_version": 1, "schema_version": 1,')],
         ["schema_version"]),
        ([('"network": {', '"network": {"edges": [], ')], ["edges"]),
        ([('"v_max": "10"', '"v_max": "10", "v_max": "9"')], ["v_max"]),
        ([('"V1": "2"', '"V1": "2", "V1": "2"')], ["V1"]),
        ([('"capacity": 2,', '"capacity": 2, "capacity": 3,')], ["capacity"]),
        ([('"operating_cost": "4"',
           '"operating_cost": "4", "cost_shares": {"T1": "1", "T1": "2"}')], ["T1"]),
        ([('"cost_share_mode": "per_seat"',
           '"cost_share_mode": "per_seat", "cost_share_mode": "x"')], ["cost_share_mode"]),
        ([('"payments": {', '"payments": {"T1": {}, ')], ["T1"]),
        ([('"V1": "3"', '"V1": "3", "V1": "4"')], ["V1"]),
        # a money value written as an object
        ([('"v_min": "1"', '"v_min": {"p": 1, "q": 2, "p": 3}')], ["p"]),
        # three of one key and two of another in one object
        ([('"id": "T2",', '"id": "T2", "id": "T2", "origin": "A", "id": "T3",')],
         ["id", "origin"]),
        # beside an unknown key, bad money and a bad capacity, in three objects
        ([('"v_max": "10"', '"v_max": "10", "v_max": "9", "colour": "red"'),
          ('"V1": "3"', '"V1": "3", "V1": "x"'),
          ('"capacity": 2,', '"capacity": -1,'),
          ('"schema_version": 1,', '"schema_version": 2, "schema_version": 1,')],
         ["v_max", "V1", "schema_version"]),
    ]  # fmt: skip
    path = tmp_path / "duplicate.json"
    for replacements, keys in placements:
        text = base
        for old, new in replacements:
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        errors = [f"document: duplicate key {key!r}" for key in keys]
        with pytest.raises(ValidationError) as exc:
            parse_document(text)
        assert exc.value.errors == errors
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {m}" for m in errors]
    # a syntax error is found before any repeat
    text = base.replace('"v_max": "10"', '"v_max": "10", "v_max": "9",,')
    with pytest.raises(ValidationError) as exc:
        parse_document(text)
    expecting = "Expecting property name enclosed in double quotes"
    assert exc.value.errors == [f"syntax error at line 27, column 35: {expecting}"]


@pytest.fixture
def canonical_path(canonical, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(serialize_document(canonical))
    return str(path)


def test_cli_solve_text(canonical_path, capsys):
    assert main(["solve", canonical_path]) == 0
    out = capsys.readouterr().out
    assert "objective: 10" in out
    assert "T1: V1" in out and "T2: V1" in out


def test_cli_solve_machine(canonical_path, capsys):
    assert main(["solve", canonical_path, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["assignment"] == {"T1": "V1", "T2": "V1"}
    assert doc["objective"] == "10"
    assert doc["dual_certificate"]["y"].keys() == {"T1", "T2"}


def test_cli_solve_paper_objective(canonical_path, capsys):
    code = main(
        ["solve", canonical_path, "--objective", "paper", "--payments", "T1=3,T2=2",
         "--format", "machine"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["welfare_paper"] == "9"


def test_cli_oracle_agreement(canonical_path, capsys):
    assert main(["oracle", canonical_path, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agreement"] is True
    assert doc["optimal_assignments"] == [{"T1": "V1", "T2": "V1"}]


def test_cli_check_default_passes(canonical_path, capsys):
    assert main(["check", canonical_path, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasibility"]["verdict"] is True
    assert doc["stability"]["verdict"] is True


def test_cli_check_unstable_payment_exits_1(canonical_path, capsys):
    assert main(["check", canonical_path, "--payments", "T1:V1=7", "--format", "machine"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["stability"]["verdict"] is False
    assert doc["stability"]["violations"][0]["kind"] == "exit_preferred"


def test_cli_check_infeasible_payment_exits_1(canonical_path, capsys):
    assert main(["check", canonical_path, "--payments", "T1:V1=9", "--format", "machine"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasibility"]["verdict"] is False
    assert doc["stability"]["verdict"] is None


def test_cli_partly_priced_document_is_completed_at_break_even(
    canonical, canonical_path, tmp_path, capsys
):
    """A document that prices only some compatible pairs is completed at
    break-even, exactly as the same prices given by ``--payments``."""
    for price in ("3", "7"):
        path = tmp_path / f"part-{price}.json"
        path.write_text(serialize_document(canonical, PaymentSchedule({("T1", "V1"): F(price)})))
        status = main(["check", str(path), "--format", "machine"])
        got = (status, capsys.readouterr())
        override = f"T1:V1={price}"
        status = main(["check", canonical_path, "--payments", override, "--format", "machine"])
        assert got == (status, capsys.readouterr())
        assert got[0] == (0 if price == "3" else 1)


def test_cli_synthesize(canonical_path, capsys):
    assert main(["synthesize", canonical_path, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payments"] == {"T1:V1": "2", "T2:V1": "2"}


def test_cli_synthesize_profit_tables_list_the_matched_pairs(tmp_path, capsys):
    """On feasible generated markets, ``traveler_profit`` and
    ``vehicle_profit`` list exactly the matched pairs, in pair order, each
    with ``compute_profits``' value under the printed schedule."""
    feasible = 0
    for seed in range(12):
        inst = generate_instance(seed, 3 + 4 * (seed % 5), 1 + seed % 4, degenerate=seed % 2 == 1)
        path = tmp_path / f"market-{seed}.json"
        path.write_text(serialize_document(inst))
        status = main(["synthesize", str(path), "--format", "machine"])
        doc = json.loads(capsys.readouterr().out)
        if status != 0:
            continue
        feasible += 1
        matched = sorted((tid, vid) for tid, vid in doc["assignment"].items() if vid is not None)
        assignment = Assignment({tid: vid or UNASSIGNED for tid, vid in doc["assignment"].items()})
        schedule = {tuple(key.split(":")): F(x) for key, x in doc["payments"].items()}
        profits = compute_profits(inst, assignment, PaymentSchedule(schedule))
        for key, values in (("traveler_profit", profits.pi), ("vehicle_profit", profits.rho)):
            assert list(doc[key].items()) == [(f"{t}:{v}", str(values[t, v])) for t, v in matched]
    assert feasible >= 6


def test_cli_synthesize_off_optimum_exits_1(canonical_path, capsys):
    code = main(["synthesize", canonical_path, "--assignment", "T2=V1", "--format", "machine"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is False
    assert doc["certificate"]


def test_cli_generate_deterministic(capsys):
    assert main(["generate", "--seed", "5", "--n", "3", "--m", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "--seed", "5", "--n", "3", "--m", "2"]) == 0
    assert capsys.readouterr().out == first
    parse_document(first)


def test_cli_generate_degenerate(capsys):
    assert main(["generate", "--seed", "3", "--n", "5", "--m", "2", "--degenerate"]) == 0
    expected = serialize_document(generate_instance(3, n=5, m=2, degenerate=True))
    assert capsys.readouterr().out == expected
    assert expected != serialize_document(generate_instance(3, n=5, m=2))


@pytest.mark.parametrize(
    "digest, seed, n, m, degenerate",
    [
        ("ae005ba7944d6566d894d514e14e5e4748b2dc97bebff8f22e31969688ec6d2b", 5, 300, 60, False),
        ("8f9e3f09615753a50abea89012a7ac913120fe5f877a463ce3b62499c92c10f0", 3, 5, 2, True),
        ("16972e450dbae92970c799ae1f7f1c172bb5f53dfe39bff0721734c7cbf5dc67", 11, 75, 15, False),
        ("7ba942b9fd6b433db9455ed5844e0d7efe5f0f7b16f6a2bfe17a2cf858c7af55", 4, 40, 6, True),
    ],
)
def test_generated_documents_keep_their_bytes(digest, seed, n, m, degenerate):
    """The documents the CI workflow pins for ``rideshare-market generate``
    keep their SHA-256: a change to the generator's random stream or to the
    document writer shows here, not only in CI."""
    text = serialize_document(generate_instance(seed, n=n, m=m, degenerate=degenerate))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_command_outputs_keep_their_bytes(tmp_path, capsys):
    """The SHA-256 of standard output and the exit status of ``solve``,
    ``synthesize`` and ``report`` on the seed-5 n=300 market and a
    degenerate one, and of ``check`` in both modes at the n=300 optimum, on
    the market priced as CI prices ``priced600.json``: each matched pair at
    its cost share, every other pair at break-even.  A change to any
    verdict, violation, certificate, schedule or their order shows here."""
    out = {}

    def run(name, argv):
        status = main([*argv, "--format", "machine"])
        out[name] = (hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest(), status)

    for label, inst in (
        ("n300", generate_instance(5, n=300, m=60)),
        ("degenerate", generate_instance(0, n=8, m=3, degenerate=True)),
    ):
        path = tmp_path / f"{label}.json"
        path.write_text(serialize_document(inst))
        for command in ("solve", "synthesize", "report"):
            run(f"{command} {label}", [command, str(path)])
    # at the n=300 optimum the break-even default is infeasible, and both
    # modes would print the same feasibility report; priced, both reach
    # their stability walks
    inst = parse_document((tmp_path / "n300.json").read_text()).instance
    a = solve_optimal_assignment(inst, with_certificate=False).assignment
    pays = {p: max(F(0), surplus(inst, *p)) for p in inst.compatible_pairs()}
    pays.update((p, cost_share(inst, *p)) for p in a.assigned_pairs())
    priced = tmp_path / "priced300.json"
    priced.write_text(serialize_document(inst, PaymentSchedule(pays)))
    argv = ["check", str(priced), "--assignment", ",".join(f"{t}={v}" for t, v in a.assigned_pairs())]
    run("check priced300", argv)
    run("check priced300 --classic-core", [*argv, "--classic-core"])
    assert out == {
        "solve n300": ("88f2eccfd6019a6d79155bb3553fa21f80897c515a6657d2b7ebd7cf6293353a", 0),
        "synthesize n300": ("d007179152dcd161ff65e86f3fbbb71fe44a8bfb46172606391442a7abf66199", 1),
        "report n300": ("f2f7a4c1c53dabed2ddcecfcb42843d921226c9aad50f27fc1b8765238c623be", 0),
        "solve degenerate": ("8c1eba904715f41660cec1a95cef965c45b01eb8244ba7ceb9208343cd1c90fc", 0),
        "synthesize degenerate": ("97e48bd55c9f195c0600a1acf366caae9ec1645875bbaab7bb0b625f0a3c4a01", 0),
        "report degenerate": ("646aed47a1dc2c4d6cde1c8c941ff6b4134a21958d2d8f3b956b3216fe2c7ccd", 0),
        "check priced300": ("159c3b602f3077c41f16118a476c079fbd3b994885008e5ce7f171c6c3d5ceca", 0),
        "check priced300 --classic-core": (
            "0f0f8ac77599fa8ab483b8b3751264a6fb9e128c8eb6846a6e6b0c5e61f784ce", 1
        ),
    }


def test_cli_generate_to_file_then_report(tmp_path, capsys):
    path = str(tmp_path / "gen.json")
    assert main(["generate", "--seed", "9", "--n", "3", "--m", "2", "-o", path]) == 0
    code = main(["report", path, "--with-oracle", "--format", "machine"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle"]["agreement"] is True
    assert "synthesis" in doc and "feasibility" in doc


def test_cli_missing_file_exits_2(capsys):
    assert main(["solve", "/nonexistent/instance.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_payment_spec_exits_2(canonical_path, capsys):
    assert main(["check", canonical_path, "--payments", "T1:V1=one"]) == 2
    assert "exact number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value",
    [
        "1e5000",
        "1e-5000",
        pytest.param("1" * 4301, id="integer-4301-digits"),
        pytest.param("1/" + "1" * 4301, id="denominator-4301-digits"),
        pytest.param("1" * 4301 + ".5", id="decimal-4302-digits"),
        pytest.param("0." + "1" * 4301, id="fraction-part-4301-digits"),
        pytest.param("1e" + "9" * 4301, id="exponent-4301-digits"),
    ],
)
@pytest.mark.parametrize("command", ["solve", "check", "report"])
def test_cli_huge_payment_override_exits_2(canonical_path, capsys, command, value):
    """An exponent is checked before its power of ten is computed, and an
    integer, either part of ``p/q`` or a decimal's digits, with or without
    an exponent, before it is converted."""
    assert main([command, canonical_path, "--payments", f"T1:V1={value}"]) == 2
    assert capsys.readouterr().err == f"error: --payments: '{value}' needs more than 4300 digits\n"


def test_cli_huge_json_integer_exits_2(canonical, tmp_path, capsys):
    """A JSON integer past Python's 4300-digit conversion limit is a
    validation error, not a traceback from the JSON decoder."""
    path = tmp_path / "huge.json"
    path.write_text(serialize_document(canonical).replace('"10"', "1" * 5000, 1))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: document: Exceeds the limit (4300")


def test_cli_deeply_nested_json_exits_2(tmp_path, capsys):
    """A document nested deeper than the JSON decoder can recurse is a
    validation error, not a ``RecursionError`` traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: document: arrays or objects nested too deeply\n"


@pytest.mark.parametrize("command", ["solve", "synthesize", "report"])
def test_cli_unprintable_derived_value_exits_2(command, tmp_path, capsys):
    """Money within the 4,300-digit rule can derive a valuation whose
    numerator has about 8,600 digits; printing it is a validation error
    with one message, and nothing is written to standard output."""
    doc = json.loads(serialize_document(generate_instance(0, n=4, m=2)))
    t0 = doc["travelers"][0]
    t0["v_max"] = "1e4299"
    t0["inconvenience"] = {vid: "1e-4299" for vid in t0["inconvenience"]}
    path = tmp_path / "unprintable.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: output: a computed value has more than 4300 digits and cannot be printed\n"
    )


def test_negative_overrides_are_named_in_the_order_given(
    canonical, canonical_path, tmp_path, capsys
):
    """Negative ``--payments`` values are named in the order the option
    gives them, not in pair order, whether or not the document prices the
    pairs."""
    priced = tmp_path / "priced.json"
    priced.write_text(
        serialize_document(canonical, PaymentSchedule({("T1", "V1"): F(3), ("T2", "V1"): F(2)}))
    )
    for path in (canonical_path, str(priced)):
        assert main(["check", path, "--payments", "T2:V1=-1,T1:V1=-1/2"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: payment for pair ('T2', 'V1') is negative",
            "error: payment for pair ('T1', 'V1') is negative",
        ], path


def test_machine_output_is_what_json_dump_writes(tmp_path, monkeypatch, capsys):
    """Every command's machine output is one line, byte for byte what
    ``json.dumps(doc, default=str)`` writes of its document, plus a newline,
    on generated markets priced in part and on ids that JSON escapes; a value
    past the digit limit is still the ``output:`` error."""
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda doc, fmt: (emitted.append(doc), emit(doc, fmt))[1])
    markets = [
        generate_instance(seed, n=3 + seed % 6, m=1 + seed % 3, degenerate=seed % 2 == 1)
        for seed in range(16)
    ]
    commands = [
        ["solve"], ["solve", "--objective", "paper"], ["oracle"], ["check"],
        ["check", "--classic-core"], ["check", "--assignment", ""], ["synthesize"],
        ["report", "--with-oracle"], ["report", "--classic-core"],
    ]  # fmt: skip
    statuses = set()
    for k, inst in enumerate([*markets, _odd_id_market()]):
        priced = PaymentSchedule({p: F(k % 4, 1 + k % 3) for p in inst.compatible_pairs()[::2]})
        path = tmp_path / f"market-{k}.json"
        path.write_text(serialize_document(inst, priced))
        for command in commands:
            emitted.clear()
            status = main([command[0], str(path), *command[1:], "--format", "machine"])
            [doc] = emitted
            out = capsys.readouterr().out
            assert out == json.dumps(doc, default=str) + "\n"
            assert out.count("\n") == 1
            statuses.add((command[0], status))
    # both verdicts of check and synthesize: violations, skipped stability and certificates
    assert {("check", 0), ("check", 1), ("synthesize", 0), ("synthesize", 1)} <= statuses
    doc = json.loads(serialize_document(generate_instance(0, n=4, m=2)))
    doc["travelers"][0]["v_max"] = "1e4299"
    doc["travelers"][0]["inconvenience"] = {vid: "1e-4299" for vid in doc["travelers"][0]["inconvenience"]}
    path = tmp_path / "unprintable.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--format", "machine"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == (
        "", "error: output: a computed value has more than 4300 digits and cannot be printed\n"
    )


@pytest.mark.parametrize("command", [["oracle"], ["report", "--with-oracle"]])
def test_cli_oracle_beyond_its_scale_exits_2(command, tmp_path, capsys):
    """A market past the enumeration's guard is a usage error with one
    message, not a traceback, and nothing is written to standard output."""
    path = tmp_path / "large.json"
    path.write_text(serialize_document(generate_instance(1, n=11, m=2)))
    assert main([command[0], str(path), *command[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: oracle scale exceeded: n=11, m=2 allows up to 177147 maps\n"


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every ``rideshare-market`` line of the README's CLI block runs, in
    order, in one directory, and ends in a verdict (exit 0 or 1)."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("rideshare-market ")]
    assert len(lines) >= 7
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) in (0, 1), line
    capsys.readouterr()


def test_cli_non_utf8_document_exits_2(tmp_path, capsys):
    """A document that is not UTF-8 text is a validation error naming the
    byte, not a ``UnicodeDecodeError`` traceback."""
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: document: not UTF-8 text at byte 0: invalid start byte\n"


@pytest.mark.parametrize("command", ["solve", "check", "synthesize", "report"])
def test_cli_unencodable_output_exits_2(command, tmp_path):
    """An id that is a lone surrogate parses, but no UTF-8 stream can write
    it: text output is a validation error with one message, and not one
    byte reaches standard output.  Machine output escapes it, as JSON may."""
    text = serialize_document(generate_instance(7, n=4, m=2)).replace('"T0"', '"T\\ud800"')
    path = tmp_path / "surrogate.json"
    path.write_text(text)
    for fmt in ("text", "machine"):
        raw, err = io.BytesIO(), io.StringIO()
        stdout = io.TextIOWrapper(raw, encoding="utf-8", errors="strict")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            status = main([command, str(path), "--format", fmt])
        stdout.flush()
        if fmt == "text":
            assert (status, raw.getvalue()) == (2, b"")
            assert err.getvalue() == "error: output: '\\ud800' cannot be encoded as utf-8\n"
        else:
            assert status in (0, 1) and err.getvalue() == ""
            assert "T\ud800" in json.loads(raw.getvalue())["assignment"]


@pytest.mark.parametrize("command", ["check", "synthesize"])
def test_cli_empty_assignment_is_the_empty_assignment(command, tmp_path, capsys):
    """Only an absent ``--assignment`` means the optimum: an empty one, like
    ``,``, leaves every traveler unassigned."""
    path = tmp_path / "instance.json"
    path.write_text(serialize_document(generate_instance(7, n=4, m=2)))
    assert main([command, str(path), "--format", "machine"]) in (0, 1)
    assert set(json.loads(capsys.readouterr().out)["assignment"].values()) == {"V0", "V1", None}
    docs = []
    for spec in ("", ","):
        status = main([command, str(path), "--assignment", spec, "--format", "machine"])
        docs.append((status, json.loads(capsys.readouterr().out)))
    assert docs[0] == docs[1]
    assert set(docs[0][1]["assignment"].values()) == {None}
    # literal check tests only the per-traveler inequalities; synthesis adds
    # the blocking-pair coupling, which the empty assignment fails
    assert docs[0][0] == (0 if command == "check" else 1)


def test_cli_payment_override_off_the_compatible_pairs_exits_2(tmp_path, capsys):
    inst = generate_instance(0, n=4, m=2)
    assert ("T0", "V0") not in inst.compatible_pairs()
    path = tmp_path / "instance.json"
    path.write_text(serialize_document(inst))
    assert main(["check", str(path), "--payments", "T0:V0=5"]) == 2
    assert "error: --payments: pair ('T0', 'V0') is not compatible" in capsys.readouterr().err
    assert main(["check", str(path), "--payments", "T9:V1=3"]) == 2
    assert "error: --payments: unknown traveler id 'T9'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, spec, message",
    [
        ("--assignment", "T1=V0,T1=V1", "--assignment: duplicate entry for traveler 'T1'"),
        ("--payments", "T1:V0=3,T1:V0=4", "--payments: duplicate entry for pair ('T1', 'V0')"),
        # T1 rides V0 at the optimum, so T1=3 prices the same pair
        ("--payments", "T1=3,T1:V0=4", "--payments: duplicate entry for pair ('T1', 'V0')"),
        # an entry without "=" is malformed, not a duplicate
        ("--assignment", "T0", "--assignment: entry 'T0' is not TID=VID"),
        ("--payments", "T0", "--payments: entry 'T0' is not KEY=VALUE"),
    ],
)
def test_cli_duplicate_override_exits_2(tmp_path, capsys, option, spec, message):
    inst = generate_instance(0, n=4, m=2)
    path = tmp_path / "instance.json"
    path.write_text(serialize_document(inst))
    assert main(["check", str(path), option, spec]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_price_of_an_unassigned_traveler_exits_2(tmp_path, capsys):
    """``TID=value`` prices the traveler's ride; with no vehicle in the
    market the traveler rides none."""
    path = tmp_path / "instance.json"
    path.write_text(serialize_document(generate_instance(2, n=3, m=0)))
    assert main(["check", str(path), "--payments", "T0=1"]) == 2
    message = "error: --payments: traveler 'T0' is unassigned; use TID:VID=value\n"
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("command", ["solve", "oracle", "check", "synthesize", "report"])
def test_cli_cost_share_mode_option_is_a_usage_error(canonical_path, capsys, command):
    """The document's ``options.cost_share_mode`` alone sets the mode."""
    assert main([command, canonical_path, "--cost-share-mode", "explicit"]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --cost-share-mode explicit" in captured.err
    assert captured.out == ""


def test_cli_generate_negative_size_exits_2(capsys):
    assert main(["generate", "--seed", "1", "--n", "-3", "--m", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: generate: n and m must be >= 0, got n=-3, m=-1\n"
    assert captured.out == ""
    assert main(["generate", "--seed", "1", "--n", "2", "--m", "-1"]) == 2
    assert main(["generate", "--seed", "1", "--n", "0", "--m", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["travelers"] == []


def test_cli_invalid_document_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["solve", str(path)]) == 2
    assert "syntax error" in capsys.readouterr().err


def test_cli_usage_error_exits_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def _fresh_process(code, *args):
    """Run ``code`` in a new interpreter that imports this package's source."""
    src = str(Path(rideshare_market.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, env=env)


def test_cli_parser_is_built_once_per_process():
    """``main`` builds the parser on its first call and every later call
    shares it; importing the CLI builds no parser at all."""
    assert build_parser() is build_parser()
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import rideshare_market.cli\n"
        "print(len(built))\n"
    )
    out = _fresh_process(code)
    assert (out.returncode, out.stdout.split(), out.stderr) == (0, [b"0"], b"")


def test_cli_calls_in_one_process_match_fresh_processes(tmp_path, monkeypatch, capsys):
    """Back-to-back calls on the shared parser print the bytes and exit
    with the status of a run in a new process: no flag of one call carries
    over to the next, and a usage error leaves the parser as it was."""
    monkeypatch.setenv("COLUMNS", "80")
    path = tmp_path / "instance.json"
    # at the optimum's break-even payments this market is unstable in
    # classic-core mode and stable in literal mode
    path.write_text(serialize_document(generate_instance(0, n=8, m=3)))
    runs = [
        ["check", str(path), "--classic-core", "--format", "machine"],
        ["check", str(path), "--format", "machine"],
        ["check", str(path), "--format", "xml"],
        ["solve", str(path)],
    ]
    code = "import sys\nfrom rideshare_market.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    outs = []
    for argv in runs:
        status = main(argv)
        captured = capsys.readouterr()
        fresh = _fresh_process(code, *argv)
        got = (status, captured.out.encode(), captured.err.encode())
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        outs.append((status, captured.out))
    assert [status for status, _ in outs] == [1, 0, 2, 0]
    modes = [json.loads(out)["stability_mode"] for _, out in outs[:2]]
    assert modes == ["classic_core", "literal"]


def test_cli_warns_of_fewer_travelers_than_vehicles_on_every_run(tmp_path, capsys):
    """A market with fewer travelers than vehicles draws one warning line of
    the CLI's own on every run in a process, naming no source file."""
    path = tmp_path / "few.json"
    path.write_text(serialize_document(generate_instance(1, n=2, m=3)))
    for _ in range(2):
        assert main(["check", str(path)]) in (0, 1)
        err = capsys.readouterr().err
        assert err == "warning: market has fewer travelers than vehicles (n < m)\n"


@pytest.fixture
def collector():
    """Set the cyclic garbage collector on or off; the test's own state is
    put back when it ends."""
    before = gc.isenabled()
    yield lambda on: gc.enable() if on else gc.disable()
    gc.enable() if before else gc.disable()


def test_cli_command_runs_with_the_cyclic_collector_paused(canonical_path, monkeypatch, collector):
    """The command body runs with the cyclic collector off, whatever its
    state when ``main`` was called.  ``cmd_*`` are bound into the cached
    parser, so the flag is read from a module global the command calls."""
    parse, seen = cli.parse_document, []

    def recorded(text):
        seen.append(gc.isenabled())
        return parse(text)

    monkeypatch.setattr(cli, "parse_document", recorded)
    for on in (True, False):
        collector(on)
        assert main(["check", canonical_path, "--format", "machine"]) == 0
    assert seen == [False, False]


@pytest.mark.parametrize("on", [True, False])
def test_cli_puts_the_cyclic_collector_back_as_it_found_it(
    on, canonical_path, tmp_path, monkeypatch, collector
):
    """``main`` leaves the collector in the state it found, on every way
    out: exit 0 and 1, a malformed document, a missing file, a usage error
    and an exception that escapes the command."""
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    runs = [
        (["check", canonical_path], 0),
        (["check", canonical_path, "--payments", "T1:V1=7"], 1),
        (["check", str(bad)], 2),
        (["check", "/nonexistent/instance.json"], 2),
        (["frobnicate"], 2),
    ]
    for argv, status in runs:
        collector(on)
        assert main(argv) == status, argv
        assert gc.isenabled() is on, argv

    def fails(text):
        raise RuntimeError("inside the command")

    monkeypatch.setattr(cli, "parse_document", fails)
    collector(on)
    with pytest.raises(RuntimeError, match="inside the command"):
        main(["check", canonical_path])
    assert gc.isenabled() is on


#: values a mutation writes in place of a document field or payment
_STRAY = [None, True, 0, -1, 7, 2.5, "", "x", "-1", "3/2", "1/0", [], {}, ["e0"], {"V0": "1"}]


def _paths(node, path=()):
    """Every path into a JSON value, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def _mutated_documents(draw):
    """A generated document with one to three mutations: a dropped key or
    list entry, a field of the wrong type or value, or a stray payment
    entry (known or unknown ids, compatible or not, valid value or not)."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, min(n, 3)))
    inst = generate_instance(draw(st.integers(0, 30)), n=n, m=m)
    doc = json.loads(serialize_document(inst))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "swap", "pay"]))
        if kind == "pay":
            payments = doc["payments"] if isinstance(doc.get("payments"), dict) else {}
            tid = draw(st.sampled_from([f"T{i}" for i in range(n + 1)]))
            row = payments[tid] if isinstance(payments.get(tid), dict) else {}
            row[draw(st.sampled_from([f"V{j}" for j in range(m + 1)]))] = draw(
                st.sampled_from(["0", "5", "3/2", *_STRAY])
            )
            payments[tid] = row
            doc["payments"] = payments
            continue
        paths = list(_paths(doc))
        if not paths:
            continue
        *parents, key = draw(st.sampled_from(paths))
        parent = doc
        for step in parents:
            parent = parent[step]
        if kind == "drop":
            del parent[key]
        else:
            parent[key] = draw(st.sampled_from(_STRAY))
    return json.dumps(doc)


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(_mutated_documents())
def test_cli_survives_mutated_documents(tmp_path_factory, text):
    """``check`` and ``report`` end every mutated document with an exit
    status, 0, 1 or 2, and never with an uncaught exception, writing to a
    strict UTF-8 stream as a terminal or pipe would."""
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(text)
    for command in ("check", "report"):
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            assert main([command, str(path)]) in (0, 1, 2)
