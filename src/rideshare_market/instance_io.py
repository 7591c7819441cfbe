"""Instance document parsing and serialization.

Documents are JSON with a fixed section layout (network, travelers,
vehicles, optional payments, options).  Money is written as exact rational
strings like ``"3/2"``; plain integers and decimal strings are accepted on
input and converted exactly.  Serialization round-trips bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from rideshare_market.allocation import PaymentSchedule
from rideshare_market.errors import ValidationError
from rideshare_market.market import MarketInstance, Traveler, Vehicle
from rideshare_market.network import Edge, Network, ODPair, Route

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class InstanceDocument:
    instance: MarketInstance
    payments: PaymentSchedule | None


def _parse_money(value, where, errors):
    try:
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, (int, str)):
            return Fraction(value)
        if isinstance(value, float):
            # floats in source documents are ambiguous; require strings
            raise ValueError
    except (ValueError, ZeroDivisionError):
        pass
    errors.append(f"{where}: not an exact number: {value!r} (use \"p/q\" strings)")
    return Fraction(0)


def parse_document(text: str) -> InstanceDocument:
    """Parse and validate a full instance document.

    Raises :class:`ValidationError` listing every problem found: syntax
    errors carry line and column, semantic errors name the section, entity
    id, and rule.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ValidationError("document: top level must be an object")
    errors = []
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        errors.append(f"document: schema_version must be {SCHEMA_VERSION}, got {version!r}")

    net_sec = doc.get("network") or {}
    vertices = net_sec.get("vertices") or []
    edges = []
    for e in net_sec.get("edges") or []:
        if not (isinstance(e, list) and len(e) == 3):
            errors.append(f"network: edge entry must be [id, tail, head], got {e!r}")
            continue
        edges.append(Edge(id=e[0], tail=e[1], head=e[2]))
    network = None
    try:
        network = Network(vertices=frozenset(vertices), edges=tuple(edges))
    except ValidationError as exc:
        errors.extend(exc.errors)

    travelers = []
    for entry in doc.get("travelers") or []:
        tid = entry.get("id")
        try:
            od = ODPair(entry.get("origin"), entry.get("destination"))
            travelers.append(
                Traveler(
                    id=tid,
                    od=od,
                    v_max=_parse_money(entry.get("v_max", 0), f"traveler {tid!r}: v_max", errors),
                    v_min=_parse_money(entry.get("v_min", 0), f"traveler {tid!r}: v_min", errors),
                    inconvenience={
                        vid: _parse_money(phi, f"traveler {tid!r}: inconvenience[{vid!r}]", errors)
                        for vid, phi in (entry.get("inconvenience") or {}).items()
                    },
                )
            )
        except ValidationError as exc:
            errors.extend(f"traveler {tid!r}: {m}" for m in exc.errors)

    vehicles = []
    for entry in doc.get("vehicles") or []:
        vid = entry.get("id")
        try:
            shares = entry.get("cost_shares")
            vehicles.append(
                Vehicle(
                    id=vid,
                    route=Route(tuple(entry.get("route") or ())),
                    capacity=entry.get("capacity", 0),
                    operating_cost=_parse_money(
                        entry.get("operating_cost", 0), f"vehicle {vid!r}: operating_cost", errors
                    ),
                    cost_shares=None
                    if shares is None
                    else {
                        t: _parse_money(s, f"vehicle {vid!r}: cost_shares[{t!r}]", errors)
                        for t, s in shares.items()
                    },
                )
            )
        except ValidationError as exc:
            errors.extend(f"vehicle {vid!r}: {m}" for m in exc.errors)

    options = doc.get("options") or {}
    mode = options.get("cost_share_mode", "per_seat")
    if errors:
        raise ValidationError(errors)
    try:
        instance = MarketInstance(
            network=network,
            travelers=tuple(travelers),
            vehicles=tuple(vehicles),
            cost_share_mode=mode,
        )
    except ValidationError as exc:
        raise ValidationError(exc.errors) from None

    payments = None
    if doc.get("payments") is not None:
        entries = {}
        for tid, row in doc["payments"].items():
            for vid, value in row.items():
                entries[(tid, vid)] = _parse_money(
                    value, f"payments: [{tid!r}][{vid!r}]", errors
                )
        if errors:
            raise ValidationError(errors)
        payments = PaymentSchedule(entries)
    return InstanceDocument(instance=instance, payments=payments)


def parse_instance(text: str) -> MarketInstance:
    return parse_document(text).instance


def serialize_document(inst: MarketInstance, payments: PaymentSchedule | None = None) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
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


def serialize_instance(inst: MarketInstance) -> str:
    return serialize_document(inst)
