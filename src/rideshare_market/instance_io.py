"""Instance document parsing and serialization.

Documents are JSON with a fixed section layout (network, travelers,
vehicles, optional payments, options).  Money is written as exact rational
strings like ``"3/2"``; ``market.exact_ratio`` reads it, plain integers and
decimal strings too, exactly, into a reduced integer ratio ``(p, q)``, and
a ``Fraction`` is made only for a public money field.  Serialization
round-trips bit-exactly.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string  # json.dumps's own escaping

from rideshare_market.allocation import PaymentSchedule
from rideshare_market.errors import ValidationError
from rideshare_market.market import MarketInstance, Traveler, Vehicle, exact_ratio
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
    if not obj.keys() <= _KEYS[kind]:
        errors.extend(f"{where}: unknown key {key!r}" for key in obj if key not in _KEYS[kind])


def _strings(values, where, errors) -> bool:
    """True when every item is a string; otherwise record an error per item."""
    bad = [v for v in values if not isinstance(v, str)]
    if bad:
        errors.extend(f"{where} {v!r} is not a string" for v in bad)
    return not bad


def _parse_money(value, errors, memo, where, *names):
    """The exact value of one money field as a reduced ratio ``(p, q)``, or
    ``(0, 1)`` with an error naming ``where.format(*names)``, formatted
    only then.  ``memo`` maps each string already converted without error
    in this document to its ratio, so a repeated string is converted once;
    a malformed one is converted, and reported, at every location."""
    if type(value) is str and value in memo:
        return memo[value]
    try:
        ratio = exact_ratio(value)
    except ValidationError as exc:
        errors.append(f"{where.format(*names)}: {exc}")
        return 0, 1
    except (ValueError, ZeroDivisionError):
        errors.append(f"{where.format(*names)}: not an exact number: {value!r} (use \"p/q\" strings)")
        return 0, 1
    if type(value) is str:
        memo[value] = ratio
    return ratio


class _Scaled(dict):
    """Each money string looked up -> its value as an ``int`` over ``den``,
    which is fixed when built, so no value held ever changes.  A money
    string is converted once per document, on its first lookup unless
    ``memo`` holds its ratio already, and its ratio is kept in ``memo``
    too.  A string whose denominator does not divide ``den``, or anything
    that is no money string, raises ``KeyError``, for the traveler loop or
    the payments' reader to handle.  Keyed by strings only, as ``memo`` is, so ``true``,
    ``1.0`` and ``1`` never pass for ``"1"``."""

    def __init__(self, memo, den=1):
        super().__init__()
        self.memo, self.den = memo, den

    def __missing__(self, text):
        if type(text) is not str:
            raise KeyError(text)
        ratio = self.memo.get(text)
        if ratio is None:
            try:
                ratio = self.memo[text] = exact_ratio(text)
            except (ValueError, ZeroDivisionError, ValidationError):
                raise KeyError(text) from None
        p, q = ratio
        if self.den % q:
            raise KeyError(text)
        value = self[text] = p * (self.den // q)
        return value


def _money_row(where, v_max, v_min, inconvenience, errors, memo) -> tuple:
    """``(den, v_max, v_min, inconvenience)`` of one traveler as ``int``s
    over ``den``, the least common multiple of its own denominators.  The
    row is converted one value at a time, in field order: one that does
    not convert is an error naming ``where``, read as 0, so money errors
    precede range errors."""
    values = [
        _parse_money(v_max, errors, memo, "{}: v_max", where),
        _parse_money(v_min, errors, memo, "{}: v_min", where),
        *(
            _parse_money(x, errors, memo, "{}: inconvenience[{!r}]", where, key)
            for key, x in inconvenience.items()
        ),
    ]
    den = math.lcm(*{q for _, q in values})
    ints = [p * (den // q) for p, q in values]
    return den, ints[0], ints[1], dict(zip(inconvenience, ints[2:]))


def _entities(doc, section, errors):
    """``(id, entry)`` for every object in the list ``doc[section]`` whose
    id is a string; every other entry is an error."""
    entries = doc.get(section, [])
    if type(entries) is not list:
        entries = _typed(entries, list, section, errors, [])
    for k, entry in enumerate(entries):
        if type(entry) is dict and type(entry.get("id")) is str:
            yield entry["id"], entry
        elif _typed(entry, dict, f"{section}[{k}]", errors, None) is not None:
            _typed(entry.get("id"), str, f"{section}[{k}]: id", errors, None)


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


def _priced_by_table(section, matrix, tids, memo):
    """The payments ``section`` scaled on the pair table's pairs, in table
    order, read in one walk of the table straight into a fixed scale: each
    money string through a :class:`_Scaled` at the table's ``den``, and a
    JSON integer times ``den``.  A money string whose denominator does not
    divide ``den`` makes the walk start once more, at the least common
    multiple of ``den`` and every such denominator.  ``None``, for the
    caller to word the errors, when a row is no object or names no
    traveler, a value is no money or is negative, or an entry is ``null``
    or prices no compatible pair (fewer prices than entries)."""
    if type(section) is not dict or not section.keys() <= tids:
        return None
    if not all(type(row) is dict for row in section.values()):
        return None
    pairs, count, empty = matrix.pairs, sum(map(len, section.values())), {}
    if count < len(pairs):  # a partial schedule: its priced pairs alone
        pairs = tuple(p for p in pairs if section.get(p[0], empty).get(p[1]) is not None)
    den, finer = 1, {matrix.den}
    while finer:  # at the table's den, then once more if a payment is finer than it
        den = math.lcm(den, *finer)
        scaled, ints, finer, tid = _Scaled(memo, den), [], set(), None
        for t, vid in pairs:
            if t != tid:
                tid, row = t, section.get(t, empty)
            try:
                ints.append(scaled[row[vid]])
            except (KeyError, TypeError):  # unpriced, finer than den, or no money string
                x = row.get(vid)  # None: unpriced or null, which the count finds
                if type(x) is str and x in memo:
                    finer.add(memo[x][1])
                elif x is not None:
                    # 1.0 and true equal 1, but only the JSON integer is money
                    if type(x) is not int or x < 0:
                        return None
                    ints.append(x * den)
    # distinct pairs read distinct entries: equal counts read every entry
    if len(ints) != count or min(scaled.values(), default=0) < 0:
        return None
    return PaymentSchedule.scaled(pairs, den, ints)


def _priced_by_document(section, matrix, tids, vids, memo):
    """The payments ``section`` read entry by entry, in document order, for
    a section that :func:`_priced_by_table` cannot read: raises
    :class:`ValidationError` naming every problem in that order."""
    entries, errors = {}, []
    for tid, row in _typed(section, dict, "payments", errors, {}).items():
        if tid not in tids:
            errors.append(f"payments: unknown traveler id {tid!r}")
            continue
        if type(row) is not dict:
            row = _typed(row, dict, f"payments: [{tid!r}]", errors, {})
        for vid, value in row.items():
            pair = (tid, vid)
            if pair not in matrix:
                if vid not in vids:
                    errors.append(f"payments: [{tid!r}]: unknown vehicle id {vid!r}")
                else:
                    errors.append(f"payments: pair {pair!r} is not compatible")
                continue
            ratio = _parse_money(value, errors, memo, "payments: [{!r}][{!r}]", tid, vid)
            entries[pair] = Fraction(*ratio)
    if errors:
        raise ValidationError(errors)
    return PaymentSchedule(entries)


def parse_document(text: str) -> InstanceDocument:
    """Parse and validate a full instance document.

    Each traveler's money is kept as ``int``s over a fixed scale: the last
    traveler's when every value is a money string that fits it, or else
    the least common multiple of its own denominators, which then serves
    the travelers after it.  The payments are read at the pair table's scale.

    Raises :class:`ValidationError` listing every problem found: syntax
    errors carry line and column, semantic errors name the section, entity
    id, and rule.
    """
    sizes, repeats = [], []

    def note(obj):
        sizes.append(len(obj))
        return obj

    try:
        doc = json.loads(text, object_hook=note)
        # each ":" outside a string follows a key, and an object keeps fewer
        # keys than were written only when it repeats one: sum(sizes) <= keys
        # written <= count of ":", so equal ends prove that no key repeats.
        # Otherwise a string holds a ":" or a key repeats, and only the pairs
        # hook can name the repeats
        if sum(sizes) != text.count(":"):
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
        if type(e) is list and len(e) == 3 and type(e[0]) is type(e[1]) is type(e[2]) is str:
            edges.append(Edge(id=e[0], tail=e[1], head=e[2]))
        else:
            errors.append(f"network: edge entry must be [id, tail, head] strings, got {e!r}")
    network = None
    try:
        network = Network(vertices=frozenset(vertices), edges=tuple(edges))
    except ValidationError as exc:
        errors.extend(exc.errors)

    travelers, tids, scaled = [], set(), _Scaled(memo)
    for tid, entry in _entities(doc, "travelers", errors):
        tids.add(tid)
        where = f"traveler {tid!r}"
        if not entry.keys() <= _KEYS["traveler"]:
            _known_keys(entry, "traveler", where, errors)
        ends = entry.get("origin"), entry.get("destination")
        if type(ends[0]) is not str or type(ends[1]) is not str:
            _strings(ends, f"{where}: origin or destination", errors)
            continue
        try:
            od = ODPair(*ends)
        except ValidationError as exc:
            errors.extend(f"{where}: {m}" for m in exc.errors)
            continue
        inconvenience = entry.get("inconvenience", {})
        if type(inconvenience) is not dict:
            inconvenience = _typed(inconvenience, dict, f"{where}: inconvenience", errors, {})
        v_max, v_min = entry.get("v_max", 0), entry.get("v_min", 0)
        try:  # every value a money string over a divisor of the last scale: read in C
            den, hi, lo = scaled.den, scaled[v_max], scaled[v_min]
            row = dict(zip(inconvenience, map(scaled.__getitem__, inconvenience.values())))
        except (KeyError, TypeError):  # TypeError: a list or an object
            den, hi, lo, row = _money_row(where, v_max, v_min, inconvenience, errors, memo)
            scaled = _Scaled(memo, den)  # the travelers after it are read at its scale
        try:
            travelers.append(Traveler.scaled(tid, od, den, hi, lo, row))
        except ValidationError as exc:
            errors.extend(exc.errors)

    vehicles, vids = [], set()
    for vid, entry in _entities(doc, "vehicles", errors):
        vids.add(vid)
        where = f"vehicle {vid!r}"
        if not entry.keys() <= _KEYS["vehicle"]:
            _known_keys(entry, "vehicle", where, errors)
        route = entry.get("route", [])
        if type(route) is not list:
            route = _typed(route, list, f"{where}: route", errors, [])
        if not all(type(e) is str for e in route):
            _strings(route, f"{where}: route edge", errors)
            continue
        try:
            route = Route(tuple(route))
        except ValidationError as exc:
            errors.extend(f"{where}: {m}" for m in exc.errors)
            continue
        shares = entry.get("cost_shares")
        if shares is not None:
            if type(shares) is not dict:
                shares = _typed(shares, dict, f"{where}: cost_shares", errors, {})
            shares = {
                t: Fraction(*_parse_money(s, errors, memo, "{}: cost_shares[{!r}]", where, t))
                for t, s in shares.items()
            }
        cost = _parse_money(entry.get("operating_cost", 0), errors, memo, "{}: operating_cost", where)
        try:
            vehicles.append(
                Vehicle(
                    id=vid,
                    route=route,
                    capacity=entry.get("capacity", 0),
                    operating_cost=Fraction(*cost),
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
        if not t.ints[3].keys() <= vids
        for vid in t.ints[3]
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
    # the instance raises its own ValidationError, every message in it, to the caller
    instance = MarketInstance(
        network, tuple(travelers), tuple(vehicles), cost_share_mode=mode
    )

    payments = None
    section = doc.get("payments")
    if section is not None:
        matrix = instance.compatibility
        payments = _priced_by_table(section, matrix, tids, memo)
        if payments is None:
            payments = _priced_by_document(section, matrix, tids, vids, memo)
    return InstanceDocument(instance=instance, payments=payments)


class _MoneyText(dict):
    """The JSON string ``"p"`` or ``"p/q"`` of each ``as_integer_ratio()``, as ``str`` writes it."""

    def __missing__(self, ratio):
        p, q = ratio
        text = self[ratio] = f'"{p}"' if q == 1 else f'"{p}/{q}"'
        return text

    def table(self, items, pad):
        """The JSON object of ``(id, money)`` items, sorted by id."""
        members = [f"{_string(k)}: {self[x.as_integer_ratio()]}" for k, x in sorted(items)]
        return _block("{}", members, pad)


def _block(brackets, items, pad):
    """JSON texts of array values or ``"key": value`` members in ``brackets``,
    as ``json`` writes them with ``indent=2`` from indent ``pad``."""
    if not items:
        return brackets
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + pad + brackets[1]


def serialize_document(inst: MarketInstance, payments: PaymentSchedule | None = None) -> str:
    """The document of ``inst`` and, if given, ``payments``: byte for byte
    ``json.dumps(doc, indent=2) + "\n"`` of it as a dict (id tables sorted, money as
    ``str``), written directly since ``json.dumps`` with ``indent`` is pure Python.
    Money past ``market.MAX_DIGITS`` digits raises ``ValueError``, as ``str`` does."""
    money = _MoneyText()
    edges = [
        _block("[]", [_string(e.id), _string(e.tail), _string(e.head)], "      ")
        for e in inst.network.edges
    ]
    vertices = _block("[]", [_string(v) for v in sorted(inst.network.vertices)], "    ")
    network = [f'"vertices": {vertices}', f'"edges": {_block("[]", edges, "    ")}']
    travelers = [
        _block("{}", [
            f'"id": {_string(t.id)}',
            f'"origin": {_string(t.od.origin)}',
            f'"destination": {_string(t.od.destination)}',
            f'"v_max": {money[t.v_max.as_integer_ratio()]}',
            f'"v_min": {money[t.v_min.as_integer_ratio()]}',
            f'"inconvenience": {money.table(t.inconvenience.items(), "      ")}',
        ], "    ")
        for t in inst.travelers
    ]  # fmt: skip
    vehicles = [
        _block("{}", [
            f'"id": {_string(v.id)}',
            f'"route": {_block("[]", [_string(e) for e in v.route.edge_ids], "      ")}',
            f'"capacity": {int.__repr__(v.capacity)}',  # as json writes an int
            f'"operating_cost": {money[v.operating_cost.as_integer_ratio()]}',
            *([] if v.cost_shares is None else
              [f'"cost_shares": {money.table(v.cost_shares.items(), "      ")}']),
        ], "    ")
        for v in inst.vehicles
    ]  # fmt: skip
    doc = [
        f'"schema_version": {SCHEMA_VERSION}',
        f'"network": {_block("{}", network, "  ")}',
        f'"travelers": {_block("[]", travelers, "  ")}',
        f'"vehicles": {_block("[]", vehicles, "  ")}',
        f'"options": {{\n    "cost_share_mode": {_string(inst.cost_share_mode)}\n  }}',
    ]
    if payments is not None:
        rows = {}
        for (tid, vid), value in payments.entries.items():
            rows.setdefault(tid, []).append((vid, value))
        table = [f"{_string(tid)}: {money.table(row, '    ')}" for tid, row in sorted(rows.items())]
        doc.append(f'"payments": {_block("{}", table, "  ")}')
    return _block("{}", doc, "") + "\n"
