"""Instance document parsing and serialization.

Documents are JSON with a fixed section layout (network, travelers,
vehicles, optional payments, options).  Money is written as exact rational
strings like ``"3/2"``; plain integers and decimal strings are accepted on
input and converted exactly.  Serialization round-trips bit-exactly.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from rideshare_market.allocation import PaymentSchedule
from rideshare_market.errors import ValidationError
from rideshare_market.market import _ZERO, MarketInstance, Traveler, Vehicle
from rideshare_market.network import Edge, Network, ODPair, Route

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class InstanceDocument:
    instance: MarketInstance
    payments: PaymentSchedule | None


_JSON_TYPES = {dict: "object", list: "list", str: "string", bool: "boolean", int: "number",
               float: "number", type(None): "null"}


def _typed(value, kind, where, errors, default):
    """``value`` when it is a ``kind``; otherwise record an error naming
    ``where`` and return ``default``."""
    if isinstance(value, kind):
        return value
    errors.append(f"{where}: expected {_JSON_TYPES[kind]}, got {_JSON_TYPES[type(value)]}")
    return default


#: the keys each object of the grammar may have; any other key is an error
_KEYS = {
    "document": {"schema_version", "network", "travelers", "vehicles", "payments", "options"},
    "network": {"vertices", "edges"},
    "traveler": {"id", "origin", "destination", "v_max", "v_min", "inconvenience"},
    "vehicle": {"id", "route", "capacity", "operating_cost", "cost_shares"},
    "options": {"cost_share_mode"},
}


def _known_keys(obj, kind, where, errors):
    """Record an error for every key of ``obj`` outside ``_KEYS[kind]``, in order."""
    errors.extend(f"{where}: unknown key {key!r}" for key in obj if key not in _KEYS[kind])


def _strings(values, where, errors) -> bool:
    """True when every item is a string; otherwise record an error per item."""
    bad = [v for v in values if not isinstance(v, str)]
    errors.extend(f"{where} {v!r} is not a string" for v in bad)
    return not bad


#: the most digits Python converts between ``int`` and ``str`` by default
MAX_DIGITS = 4300

#: the money grammar, on every Python: a sign, an integer, ``p/q`` or a decimal
_NUMBER = re.compile(r"[-+]?(?:\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)", re.ASCII)


def exact_number(value) -> Fraction:
    """``Fraction(value)`` for an ``int`` or a string in the money grammar.

    A string's exponent is checked before the power of ten is computed: a
    value with more than :data:`MAX_DIGITS` digits once its exponent is
    written out raises :class:`ValidationError`, since it could never be
    printed.  Other strings raise ``ValueError``, non-ASCII digits too.
    """
    if isinstance(value, str):
        if not _NUMBER.fullmatch(value):
            raise ValueError(f"not an exact number: {value!r}")
        mantissa, e, exponent = value.upper().partition("E")
        if e and sum(c.isdigit() for c in mantissa) + abs(int(exponent)) > MAX_DIGITS:
            raise ValidationError(f"{value!r} needs more than {MAX_DIGITS} digits")
    return Fraction(value)


def _parse_money(value, where, errors, memo):
    """The exact value of one money field, or ``0`` with an error naming
    ``where``.  ``memo`` maps each string already converted without error
    in this document to its value, so a repeated string is converted once;
    a malformed one is converted, and reported, at every location.  A
    caller in a loop looks a string up in ``memo`` itself, before it
    formats ``where``."""
    if isinstance(value, str) and value in memo:
        return memo[value]
    try:
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, (int, str)):
            number = exact_number(value)
            if isinstance(value, str):
                memo[value] = number
            return number
        if isinstance(value, float):
            # floats in source documents are ambiguous; require strings
            raise ValueError
    except ValidationError as exc:
        errors.append(f"{where}: {exc}")
        return _ZERO
    except (ValueError, ZeroDivisionError):
        pass
    errors.append(f"{where}: not an exact number: {value!r} (use \"p/q\" strings)")
    return _ZERO


def _entities(doc, section, errors):
    """``(id, entry)`` for every object in the list ``doc[section]`` whose
    id is a string; every other entry is an error."""
    for k, entry in enumerate(_typed(doc.get(section, []), list, section, errors, [])):
        where = f"{section}[{k}]"
        if _typed(entry, dict, where, errors, None) is not None:
            if _typed(entry.get("id"), str, f"{where}: id", errors, None) is not None:
                yield entry["id"], entry


def _objects_noting_repeats(repeats):
    """An ``object_pairs_hook`` for ``json.loads`` that builds each object
    as a ``dict`` and appends to ``repeats`` every key the object repeats,
    which ``json.loads`` alone would collapse to its last value."""

    def build(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            counts = Counter(key for key, _ in pairs)
            repeats.extend(key for key, count in counts.items() if count > 1)
        return obj

    return build


def parse_document(text: str) -> InstanceDocument:
    """Parse and validate a full instance document.

    Raises :class:`ValidationError` listing every problem found: syntax
    errors carry line and column, semantic errors name the section, entity
    id, and rule.
    """
    repeats = []
    try:
        doc = json.loads(text, object_pairs_hook=_objects_noting_repeats(repeats))
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # an integer beyond Python's digit limit
        raise ValidationError(f"document: {exc}") from None
    except RecursionError:
        raise ValidationError("document: arrays or objects nested too deeply") from None
    if repeats:
        raise ValidationError([f"document: duplicate key {key!r}" for key in repeats])
    if not isinstance(doc, dict):
        raise ValidationError("document: top level must be an object")
    errors = []
    memo = {}
    version = doc.get("schema_version")
    # True and 1.0 equal 1, but neither is the integer 1
    if type(version) is not int or version != SCHEMA_VERSION:
        errors.append(f"document: schema_version must be {SCHEMA_VERSION}, got {version!r}")
    _known_keys(doc, "document", "document", errors)

    net_sec = _typed(doc.get("network", {}), dict, "network", errors, {})
    _known_keys(net_sec, "network", "network", errors)
    vertices = _typed(net_sec.get("vertices", []), list, "network: vertices", errors, [])
    vertices = vertices if _strings(vertices, "network: vertex", errors) else []
    edges = []
    for e in _typed(net_sec.get("edges", []), list, "network: edges", errors, []):
        if not (isinstance(e, list) and len(e) == 3 and all(isinstance(x, str) for x in e)):
            errors.append(f"network: edge entry must be [id, tail, head] strings, got {e!r}")
            continue
        edges.append(Edge(id=e[0], tail=e[1], head=e[2]))
    network = None
    try:
        network = Network(vertices=frozenset(vertices), edges=tuple(edges))
    except ValidationError as exc:
        errors.extend(exc.errors)

    travelers, tids = [], set()
    for tid, entry in _entities(doc, "travelers", errors):
        tids.add(tid)
        where = f"traveler {tid!r}"
        _known_keys(entry, "traveler", where, errors)
        ends = [entry.get("origin"), entry.get("destination")]
        if not _strings(ends, f"{where}: origin or destination", errors):
            continue
        try:
            od = ODPair(*ends)
        except ValidationError as exc:
            errors.extend(f"{where}: {m}" for m in exc.errors)
            continue
        inconvenience = _typed(
            entry.get("inconvenience", {}), dict, f"{where}: inconvenience", errors, {}
        )
        try:
            travelers.append(
                Traveler(
                    id=tid,
                    od=od,
                    v_max=_parse_money(entry.get("v_max", 0), f"{where}: v_max", errors, memo),
                    v_min=_parse_money(entry.get("v_min", 0), f"{where}: v_min", errors, memo),
                    inconvenience={
                        vid: memo[phi]
                        if type(phi) is str and phi in memo
                        else _parse_money(phi, f"{where}: inconvenience[{vid!r}]", errors, memo)
                        for vid, phi in inconvenience.items()
                    },
                )
            )
        except ValidationError as exc:
            errors.extend(exc.errors)

    vehicles, vids = [], set()
    for vid, entry in _entities(doc, "vehicles", errors):
        vids.add(vid)
        where = f"vehicle {vid!r}"
        _known_keys(entry, "vehicle", where, errors)
        route = _typed(entry.get("route", []), list, f"{where}: route", errors, [])
        if not _strings(route, f"{where}: route edge", errors):
            continue
        try:
            route = Route(tuple(route))
        except ValidationError as exc:
            errors.extend(f"{where}: {m}" for m in exc.errors)
            continue
        shares = entry.get("cost_shares")
        if shares is not None:
            shares = {
                t: memo[s]
                if type(s) is str and s in memo
                else _parse_money(s, f"{where}: cost_shares[{t!r}]", errors, memo)
                for t, s in _typed(shares, dict, f"{where}: cost_shares", errors, {}).items()
            }
        try:
            vehicles.append(
                Vehicle(
                    id=vid,
                    route=route,
                    capacity=entry.get("capacity", 0),
                    operating_cost=_parse_money(
                        entry.get("operating_cost", 0), f"{where}: operating_cost", errors, memo
                    ),
                    cost_shares=shares,
                )
            )
        except ValidationError as exc:
            errors.extend(exc.errors)

    # an id in an inconvenience or cost_shares table names an entity of the
    # document, even one whose other fields are in error
    errors += [
        f"traveler {t.id!r}: inconvenience: unknown vehicle id {vid!r}"
        for t in travelers
        for vid in t.inconvenience
        if vid not in vids
    ]
    errors += [
        f"vehicle {v.id!r}: cost_shares: unknown traveler id {tid!r}"
        for v in vehicles
        for tid in v.cost_shares or ()
        if tid not in tids
    ]

    options = _typed(doc.get("options", {}), dict, "options", errors, {})
    _known_keys(options, "options", "options", errors)
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
        compatible = instance.compatibility.entries
        for tid, row in _typed(doc["payments"], dict, "payments", errors, {}).items():
            if tid not in tids:
                errors.append(f"payments: unknown traveler id {tid!r}")
                continue
            for vid, value in _typed(row, dict, f"payments: [{tid!r}]", errors, {}).items():
                if vid not in vids:
                    errors.append(f"payments: [{tid!r}]: unknown vehicle id {vid!r}")
                    continue
                pair = (tid, vid)
                if pair not in compatible:
                    errors.append(f"payments: pair {pair!r} is not compatible")
                    continue
                entries[pair] = (
                    memo[value]
                    if type(value) is str and value in memo
                    else _parse_money(value, f"payments: [{tid!r}][{vid!r}]", errors, memo)
                )
        if errors:
            raise ValidationError(errors)
        payments = PaymentSchedule(entries)
    return InstanceDocument(instance=instance, payments=payments)


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
