"""Travelers, vehicles, market instances, and every scalar market formula.

Money leaves as :class:`fractions.Fraction` and enters so, or as what
:func:`exact_ratio`, the one reader of every document's and constructor's
money, reads into a reduced integer ratio ``(p, q)``; the package never
rounds.  The range checks of :class:`Traveler` (``0 <= v_min <= v_max``
and ``0 <= inconvenience <= v_max``) run once, as the traveler is built, on
integers: ``Traveler(...)`` cross-multiplies each bound and value as
``numerator / denominator``, and :meth:`Traveler.scaled`, which the parser
calls with a traveler's money already as ``int``s over one denominator,
compares those.  The pair table reads each traveler's money as ``int``s
(:attr:`Traveler.ints`) and each served vehicle's per-seat share as an
integer ratio, and holds the compatible pairs' terms in ``int`` columns
aligned with its pairs, over the instance's least common denominator,
and every reader compares those integers, found by a pair's position;
the scalar formulas make one ``Fraction`` per answer, and
``Fraction``s otherwise appear only in violations and output.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import sub
from types import MappingProxyType

from rideshare_market.errors import IncompatiblePairError, ValidationError
from rideshare_market.network import (
    Network, ODPair, Route, route_vertex_sequence, serves, stops, validate_od
)

#: Sentinel marking a traveler that rides no vehicle.
UNASSIGNED = None

PER_SEAT = "per_seat"
EXPLICIT = "explicit"

_ZERO = Fraction(0)


#: the most digits Python converts between ``int`` and ``str`` by default
MAX_DIGITS = 4300

#: the money grammar, on every Python: a sign, an integer, ``p/q`` or a
#: decimal; the groups are the sign and, for an integer or ``p/q``, its digits
_NUMBER = re.compile(r"([-+]?)(?:(\d+)(?:/(\d+))?|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)", re.ASCII)


def exact_ratio(value) -> tuple:
    """``(p, q)``, in lowest terms with ``q > 0``: the exact value of an
    ``int`` or a string in the money grammar.

    A string is matched against the grammar once: an integer or ``p/q``
    string is built from the match's own digits and reduced by one
    ``gcd``, and a decimal's digits and exponent are counted before any is
    converted.  A value with more than :data:`MAX_DIGITS` digits in an
    integer, in either part of ``p/q``, in a decimal's exponent, or in a
    decimal with its exponent written out raises :class:`ValidationError`,
    since it could never be printed.  A zero denominator raises
    ``ZeroDivisionError``; any other value raises ``ValueError``: a string
    with non-ASCII digits, a ``bool``, a ``float``.
    """
    if isinstance(value, str):
        match = _NUMBER.fullmatch(value)
        if not match:
            raise ValueError(f"not an exact number: {value!r}")
        sign, p, q = match.groups()
        if p is not None:
            if len(p) > MAX_DIGITS or q is not None and len(q) > MAX_DIGITS:
                raise ValidationError(f"{value!r} needs more than {MAX_DIGITS} digits")
            p = -int(p) if sign == "-" else int(p)
            if q is None:
                return p, 1
            q = int(q)
            if not q:
                raise ZeroDivisionError(f"zero denominator: {value!r}")
            g = math.gcd(p, q)
            return p // g, q // g
        mantissa, _, exponent = value.upper().partition("E")
        if len(exponent.lstrip("+-")) > MAX_DIGITS or (
            sum(c.isdigit() for c in mantissa) + abs(int(exponent or 0)) > MAX_DIGITS
        ):
            raise ValidationError(f"{value!r} needs more than {MAX_DIGITS} digits")
        return Fraction(value).as_integer_ratio()
    # a bool is an int too, but no amount
    if type(value) is int:
        return value, 1
    raise ValueError(f"not an exact number: {value!r}")


def exact_number(value) -> Fraction:
    """The ``Fraction`` of :func:`exact_ratio`'s ratio, or its error."""
    return Fraction(*exact_ratio(value))


def _money(x) -> Fraction:
    # ``type`` first: ``isinstance(x, Fraction)`` goes through ``ABCMeta``, which is slow
    if type(x) is Fraction or isinstance(x, Fraction):
        return x
    # a float is already rounded and a bool is no amount, named as such here;
    # anything else is read by the documents' own grammar, and refused so too
    if isinstance(x, (float, bool)):
        raise ValidationError(f"money value {x!r} is a {type(x).__name__}, not an exact number")
    try:
        return exact_number(x)
    except ValidationError:
        raise
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"money value {x!r} is not an exact number") from None


def scale_ratios(ratios, den=1):
    """``(D, ints)``: the least common multiple ``D`` of ``den`` and the
    denominators ``q`` of the list of ratios ``(p, q)``, each in lowest
    terms with ``q > 0``, and each ratio times ``D``, an exact ``int``.
    Each distinct denominator is divided into ``D`` once.  Scaling by a
    positive factor keeps every sum and comparison, so shortest paths and
    inequalities over ``ints`` are those over the ratios, with every value
    ``D`` times larger."""
    distinct = {q for _, q in ratios}
    # reduced pairwise in a balanced tree, two large operands meet only near
    # the root; left to right, every step multiplies a growing big integer
    lcms = list(distinct)
    while len(lcms) > 2:
        lcms = [math.lcm(*lcms[k : k + 2]) for k in range(0, len(lcms), 2)]
    common = math.lcm(den, *lcms)
    cofactor = {q: common // q for q in distinct}
    return common, [p * cofactor[q] for p, q in ratios]


def scale_to_integers(values, den=1):
    """:func:`scale_ratios` of the rationals ``values``' integer ratios."""
    return scale_ratios([v.as_integer_ratio() for v in values], den)


def _range_errors(tid, bounds_ok: bool, outside) -> list:
    """Traveler ``tid``'s range errors, in order: its bounds, then each
    vehicle id in ``outside``, whose inconvenience is outside [0, v_max]."""
    errors = [] if bounds_ok else [f"traveler {tid!r}: needs 0 <= v_min <= v_max"]
    errors += [
        f"traveler {tid!r}: inconvenience for vehicle {vid!r} outside [0, v_max]"
        for vid in outside
    ]
    return errors


class _View(cached_property):
    """A money field of a scaled :class:`Traveler` or ``PaymentSchedule``,
    built from its ``int``s on first read; one built from money holds the
    field itself.  Read on the class it raises ``AttributeError``, so that
    ``@dataclass`` sees no default and the field stays required."""

    def __get__(self, instance, owner=None):
        if instance is None:
            raise AttributeError(self.attrname)
        return super().__get__(instance, owner)


@dataclass(frozen=True)
class Traveler:
    """A rider: a trip, the bounds of its value and an inconvenience per
    vehicle.  ``Traveler(...)`` checks money and keeps it; the parser
    builds one in an integer scale of its own with :meth:`scaled`, whose
    money fields are then views built on first read.  Either way
    :attr:`ints` holds the money as ``int``s over one denominator, and the
    pair table reads only that."""

    id: str
    od: ODPair
    v_max: Fraction = _View(lambda t: Fraction(t.ints[1], t.ints[0]))
    v_min: Fraction = _View(lambda t: Fraction(t.ints[2], t.ints[0]))
    #: vehicle id -> inconvenience (money).  A vehicle is compatible only if
    #: its route serves ``od`` (:func:`~rideshare_market.network.serves`)
    #: *and* an entry exists here.
    inconvenience: dict = _View(
        lambda t: dict(zip(t.ints[3], map(Fraction, t.ints[3].values(), repeat(t.ints[0]))))
    )

    def __post_init__(self):
        v_max, v_min = self.v_max, self.v_min
        if type(v_max) is not Fraction or type(v_min) is not Fraction:
            v_max, v_min = _money(v_max), _money(v_min)
            object.__setattr__(self, "v_max", v_max)
            object.__setattr__(self, "v_min", v_min)
        # 0 <= n/d <= hi/hd as integers: n >= 0 and n * hd <= hi * d, for d, hd > 0
        hi, hd = v_max.as_integer_ratio()
        n, d = v_min.as_integer_ratio()
        bounds_ok = n >= 0 and n * hd <= hi * d
        outside = []
        inconvenience = dict(self.inconvenience)
        for vid, phi in inconvenience.items():
            if type(phi) is not Fraction:
                inconvenience[vid] = phi = _money(phi)
            n, d = phi.as_integer_ratio()
            if not (n >= 0 and n * hd <= hi * d):
                outside.append(vid)
        object.__setattr__(self, "inconvenience", inconvenience)
        if not bounds_ok or outside:
            raise ValidationError(_range_errors(self.id, bounds_ok, outside))

    @classmethod
    def scaled(cls, id, od, den: int, v_max: int, v_min: int, inconvenience: dict) -> Traveler:
        """``v_max``, ``v_min`` and each value of ``inconvenience`` are
        ``int``s over ``den``, checked as ``Traveler(...)`` checks its money,
        with its messages, and kept as given."""
        bounds_ok = 0 <= v_min <= v_max
        if not bounds_ok or inconvenience and not (
            min(inconvenience.values()) >= 0 and max(inconvenience.values()) <= v_max
        ):
            outside = [vid for vid, phi in inconvenience.items() if not 0 <= phi <= v_max]
            raise ValidationError(_range_errors(id, bounds_ok, outside))
        t = object.__new__(cls)
        t.__dict__.update(id=id, od=od, ints=(den, v_max, v_min, inconvenience))
        return t

    @cached_property
    def ints(self) -> tuple:
        """``(den, v_max, v_min, inconvenience)``: the money as ``int``s over
        ``den``.  A scaled traveler keeps those it was built with; one built
        from money gets the least common denominator of its own values."""
        den, ints = scale_to_integers([self.v_max, self.v_min, *self.inconvenience.values()])
        return den, ints[0], ints[1], dict(zip(self.inconvenience, ints[2:]))


@dataclass(frozen=True)
class Vehicle:
    id: str
    route: Route
    capacity: int
    operating_cost: Fraction
    #: traveler id -> explicit cost share; only consulted in explicit mode.
    cost_shares: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "operating_cost", _money(self.operating_cost))
        if self.cost_shares is not None:
            object.__setattr__(
                self, "cost_shares", {k: _money(v) for k, v in self.cost_shares.items()}
            )
        errors = []
        if isinstance(self.capacity, bool) or not isinstance(self.capacity, int):
            errors.append(f"vehicle {self.id!r}: capacity {self.capacity!r} is not an integer")
        elif self.capacity < 1:
            errors.append(f"vehicle {self.id!r}: capacity must be >= 1")
        if self.operating_cost < 0:
            errors.append(f"vehicle {self.id!r}: operating cost must be nonnegative")
        if self.cost_shares is not None:
            for tid, share in self.cost_shares.items():
                if share < 0:
                    errors.append(
                        f"vehicle {self.id!r}: cost share for traveler {tid!r} negative"
                    )
        if errors:
            raise ValidationError(errors)


def _per_seat(v: Vehicle) -> tuple:
    """``v.operating_cost / v.capacity`` in lowest terms: the cost's ratio
    is, so only its numerator and the capacity can share a factor."""
    p, q = v.operating_cost.as_integer_ratio()
    g = math.gcd(p, v.capacity)
    return p // g, q * (v.capacity // g)


@dataclass(frozen=True)
class CompatibilityMatrix:
    """The compatible traveler x vehicle pairs, and each pair's terms in
    ``int`` columns aligned with them, each term ``den`` times its money.
    A pair is compatible exactly when it is in the matrix."""

    #: the least common denominator of the instance's money
    den: int
    #: the compatible pairs, each traveler's together, travelers and each
    #: traveler's vehicles in instance order
    pairs: tuple
    #: ``value[k]``, ``share[k]`` and ``surplus[k]``: the valuation, cost
    #: share and surplus of ``pairs[k]``
    value: list
    share: list
    surplus: list
    #: traveler id -> v_min times ``den``, for every traveler
    v_min: dict
    #: traveler id -> the position in ``pairs`` of its first pair
    first: dict
    #: traveler id -> the position in ``pairs`` past its last pair
    stop: dict

    def position(self, pair) -> int:
        """The index in ``pairs`` of ``pair``, which must be compatible."""
        return self.pairs.index(pair, self.first[pair[0]])

    def __contains__(self, pair) -> bool:
        """Whether ``pair`` is compatible: only its traveler's own pairs are
        compared with it."""
        tid = pair[0]
        start = self.first.get(tid)
        return start is not None and pair in self.pairs[start : self.stop[tid]]

    #: pair -> (valuation, share, surplus), a read-only view built on first
    #: read; the package's own paths read the columns
    entries = cached_property(
        lambda self: MappingProxyType(
            dict(zip(self.pairs, zip(self.value, self.share, self.surplus)))
        )
    )


@dataclass(frozen=True)
class MarketInstance:
    network: Network
    travelers: tuple
    vehicles: tuple
    cost_share_mode: str = PER_SEAT

    def __post_init__(self):
        object.__setattr__(self, "travelers", tuple(self.travelers))
        object.__setattr__(self, "vehicles", tuple(self.vehicles))
        errors = []
        if self.cost_share_mode not in (PER_SEAT, EXPLICIT):
            errors.append(f"instance: unknown cost_share_mode {self.cost_share_mode!r}")
            raise ValidationError(errors)
        seen = set()
        for t in self.travelers:
            if t.id in seen:
                errors.append(f"instance: duplicate traveler id {t.id!r}")
            seen.add(t.id)
            try:
                validate_od(self.network, t.od)
            except ValidationError as exc:
                errors.extend(f"traveler {t.id!r}: {m}" for m in exc.errors)
        seen = set()
        # each route's stops: walked once, here, and read by the pair table
        route_stops = []
        for v in self.vehicles:
            if v.id in seen:
                errors.append(f"instance: duplicate vehicle id {v.id!r}")
            seen.add(v.id)
            try:
                route_stops.append(stops(route_vertex_sequence(self.network, v.route)))
            except ValidationError as exc:
                errors.append(f"vehicle {v.id!r}: {exc}")
        object.__setattr__(self, "_stops", route_stops)
        if errors:
            raise ValidationError(errors)
        if self.cost_share_mode == EXPLICIT:
            self.compatibility  # the build checks every explicit share
        if len(self.travelers) < len(self.vehicles):
            # past __post_init__ and the generated __init__, to the caller
            warnings.warn(
                "market has fewer travelers than vehicles (n < m)", stacklevel=3
            )

    @cached_property
    def _traveler_map(self):
        return {t.id: t for t in self.travelers}

    @cached_property
    def _vehicle_map(self):
        return {v.id: v for v in self.vehicles}

    def traveler(self, tid) -> Traveler:
        try:
            return self._traveler_map[tid]
        except KeyError:
            raise ValidationError(f"instance: unknown traveler id {tid!r}") from None

    def vehicle(self, vid) -> Vehicle:
        try:
            return self._vehicle_map[vid]
        except KeyError:
            raise ValidationError(f"instance: unknown vehicle id {vid!r}") from None

    @cached_property
    def compatibility(self) -> CompatibilityMatrix:
        """Every compatible pair and its terms, derived once, as integers
        over the least common denominator of the travelers' ``v_max`` and
        ``v_min`` and the pairs' inconvenience and cost share.  In explicit
        mode a compatible pair without a cost share is a validation error.
        Each traveler's money is read from its :attr:`Traveler.ints`."""
        explicit = self.cost_share_mode == EXPLICIT
        vehicles = self.vehicles
        # per pair: its ids, its vehicle's index and its valuation; its
        # explicit share, or in per-seat mode one share per served vehicle
        pairs, cols, values, shares, errors, first, stop = [], [], [], [], [], {}, {}
        highs, v_min = [], {}
        index = {v.id: k for k, v in enumerate(vehicles)}
        route_stops = self._stops
        # every traveler's money over one denominator; a parsed document's
        # travelers are over a few small ones, most shared with the traveler before
        common = math.lcm(*{t.ints[0] for t in self.travelers})
        # per trip: vehicle index -> whether its route serves the trip, asked
        # only of the vehicles that the trip's travelers name
        by_trip = {}
        for t in self.travelers:
            tid, od = t.id, t.od
            den, hi, lo, own = t.ints
            if den != common:
                lift = common // den
                hi, lo, own = hi * lift, lo * lift, dict(zip(own, map(lift.__mul__, own.values())))
            highs.append(hi)
            v_min[tid] = lo
            trip = (od.origin, od.destination)
            known = by_trip.get(trip)
            if known is None:
                known = by_trip[trip] = {}
            # the traveler's own entries, in vehicle order; an unknown id names no vehicle
            hits = [index[vid] for vid in own if vid in index]
            hits.sort()
            first[tid] = len(pairs)
            for k in hits:
                ok = known.get(k)
                if ok is None:
                    ok = known[k] = serves(route_stops[k], od)
                if not ok:
                    continue
                vid = vehicles[k].id
                if explicit:
                    share = (vehicles[k].cost_shares or {}).get(tid)
                    if share is None:
                        errors.append(
                            f"vehicle {vid!r}: explicit mode but no cost share for "
                            f"compatible traveler {tid!r}"
                        )
                        continue
                    shares.append(share.as_integer_ratio())
                pairs.append((tid, vid))
                cols.append(k)
                values.append(hi - own[vid])
            stop[tid] = len(pairs)
        if errors:
            raise ValidationError(errors)
        # money off the pairs may have raised common: what every bound and
        # valuation shares is no denominator of the table's
        cut = math.gcd(common, *highs, *v_min.values(), *values)
        if cut > 1:
            common //= cut
            v_min = {tid: x // cut for tid, x in v_min.items()}
            values = [x // cut for x in values]
        if not explicit:
            served = sorted(set(cols))
            shares = [_per_seat(vehicles[k]) for k in served]
        den, shares = scale_ratios(shares, common)
        if den != common:
            up = den // common
            v_min = dict(zip(v_min, map(up.__mul__, v_min.values())))
            values = list(map(up.__mul__, values))
        if not explicit:
            seat = dict(zip(served, shares))
            shares = list(map(seat.__getitem__, cols))
        surplus = list(map(sub, values, shares))
        return CompatibilityMatrix(den, tuple(pairs), values, shares, surplus, v_min, first, stop)

    def compatible_pairs(self):
        """Compatible pairs in instance (traveler, vehicle) order."""
        return list(self.compatibility.pairs)

    def compatible_vehicles(self, tid):
        """The vehicles of traveler ``tid``'s pairs in vehicle order; none if unknown."""
        matrix = self.compatibility
        own = matrix.pairs[matrix.first.get(tid, 0) : matrix.stop.get(tid, 0)]
        return [vid for _, vid in own]


@dataclass(frozen=True)
class Assignment:
    """Map from traveler id to vehicle id or ``UNASSIGNED``.

    Vehicles with no assigned traveler realize the market's bookkeeping
    convention for unused capacity.
    """

    mapping: dict

    def vehicle_of(self, tid):
        return self.mapping.get(tid, UNASSIGNED)

    def assigned_pairs(self):
        return [(tid, vid) for tid, vid in self.mapping.items() if vid is not UNASSIGNED]

    def assigned_vehicles(self):
        """The set of vehicles actually serving someone."""
        return set(self.riders)

    @cached_property
    def riders(self) -> dict:
        """Vehicle id -> its riders in mapping order, derived once; served
        vehicles only."""
        riders = {}
        for tid, vid in self.assigned_pairs():
            riders.setdefault(vid, []).append(tid)
        return riders

    def as_key(self):
        return tuple(sorted(self.mapping.items(), key=lambda kv: kv[0]))


def validate_assignment(inst: MarketInstance, a: Assignment):
    """Check compatibility, the one-vehicle rule, and vehicle capacities."""
    errors = []
    loads = {}
    for tid, vid in a.mapping.items():
        if tid not in inst._traveler_map:
            errors.append(f"assignment: unknown traveler id {tid!r}")
            continue
        if vid is UNASSIGNED:
            continue
        if vid not in inst._vehicle_map:
            errors.append(f"assignment: unknown vehicle id {vid!r}")
            continue
        if (tid, vid) not in inst.compatibility:
            errors.append(f"assignment: pair ({tid!r}, {vid!r}) is not compatible")
        loads[vid] = loads.get(vid, 0) + 1
    for vid, load in loads.items():
        if load > inst.vehicle(vid).capacity:
            errors.append(
                f"assignment: vehicle {vid!r} carries {load} travelers, "
                f"capacity {inst.vehicle(vid).capacity}"
            )
    if errors:
        raise ValidationError(errors)


def validate_schedule(inst: MarketInstance, t) -> tuple:
    """``(den, ints)``: schedule ``t``'s payments in pair-table order, as
    ``int``s over ``den``, a multiple of the table's.  One scaled on the
    table's own ``pairs`` is read as it is, or lifted to the least common
    multiple of both ``den``s when its own is not a multiple of the
    table's; any other is looked up and lifted.  A compatible pair without
    a payment is an error; each is named, in order."""
    matrix = inst.compatibility
    if t.pairs is matrix.pairs:
        up = matrix.den // math.gcd(t.den, matrix.den)
        return t.den * up, t.ints if up == 1 else [x * up for x in t.ints]
    entries = t.entries
    try:
        pays = list(map(entries.__getitem__, matrix.pairs))
    except KeyError:
        missing = [p for p in matrix.pairs if p not in entries]
        errors = [f"schedule: no payment for compatible pair {p}" for p in missing]
        raise ValidationError(errors) from None
    return scale_to_integers(pays, matrix.den)


def valuation(t: Traveler, vid) -> Fraction:
    """Traveler ``t``'s satisfaction value for riding vehicle ``vid``:
    the upper bound minus the pair's inconvenience."""
    if vid not in t.inconvenience:
        raise IncompatiblePairError(
            f"traveler {t.id!r} has no inconvenience entry for vehicle {vid!r}"
        )
    return t.v_max - t.inconvenience[vid]


def _term(inst: MarketInstance, column: str, tid, vid) -> Fraction:
    """A compatible pair's entry in the pair table's ``column`` (``value``,
    ``share`` or ``surplus``) as money; any other pair raises
    :class:`IncompatiblePairError`."""
    matrix = inst.compatibility
    if (tid, vid) not in matrix:
        raise IncompatiblePairError(f"pair ({tid!r}, {vid!r}) is not compatible")
    return Fraction(getattr(matrix, column)[matrix.position((tid, vid))], matrix.den)


def cost_share(inst: MarketInstance, tid, vid) -> Fraction:
    """Traveler ``tid``'s share of vehicle ``vid``'s operating cost, read
    from the instance's pair table.

    Per-seat mode charges ``operating_cost / capacity`` regardless of the
    realized occupancy; explicit mode uses the vehicle's listed share.
    Either way the share is independent of the assignment.  Raises
    :class:`IncompatiblePairError` for a pair that is not compatible.
    """
    return _term(inst, "share", tid, vid)


def utility(inst: MarketInstance, tid, vid, t_ij) -> Fraction:
    """Quasi-linear rider utility: valuation minus payment.

    ``vid`` may be ``UNASSIGNED``, in which case the utility is 0 by
    convention.
    """
    if vid is UNASSIGNED:
        return _ZERO
    value = _term(inst, "value", tid, vid)
    t_ij = _money(t_ij)
    if t_ij < 0:
        raise ValidationError(f"payment for ({tid!r}, {vid!r}) is negative")
    return value - t_ij


def surplus(inst: MarketInstance, tid, vid) -> Fraction:
    """Joint pie of a pairing: valuation minus cost share.  Independent of
    how the internal payment splits it."""
    return _term(inst, "surplus", tid, vid)


def surplus_matrix(inst: MarketInstance) -> dict:
    """Pair surplus for every compatible pair.  Incompatible pairs are
    simply absent; there is no numeric sentinel."""
    matrix = inst.compatibility
    return dict(zip(matrix.pairs, map(Fraction, matrix.surplus, repeat(matrix.den))))


def welfare_paper(inst: MarketInstance, a: Assignment, t) -> Fraction:
    """Total rider utility plus the bookkeeping term for idle vehicles.

    A vehicle serving nobody contributes its full operating cost (the
    market's convention for unassigned capacity); each riding traveler
    contributes valuation minus payment.  ``t`` is a
    :class:`~rideshare_market.allocation.PaymentSchedule` over the
    compatible pairs, each matched payment read as an ``int`` by its
    position in the pair table.
    """
    validate_assignment(inst, a)
    common, pays = validate_schedule(inst, t)
    matrix = inst.compatibility
    lift = common // matrix.den
    rides = [matrix.value[k] * lift - pays[k] for k in map(matrix.position, a.assigned_pairs())]
    idle = (v.operating_cost for v in inst.vehicles if v.id not in a.riders)
    return sum(idle, Fraction(sum(rides), common))


def welfare_surplus(inst: MarketInstance, a: Assignment) -> Fraction:
    """Payment-free welfare: the sum of pair surpluses over matched pairs.
    This is the solver's objective."""
    return sum(
        (surplus(inst, tid, vid) for tid, vid in a.assigned_pairs()), _ZERO
    )


def cost_recovery_gap(inst: MarketInstance, a: Assignment, vid) -> Fraction:
    """Unrecovered operating cost of ``vid``: cost minus collected shares.

    Zero exactly when the vehicle is full (per-seat mode) or the explicit
    shares of its riders happen to sum to the cost.
    """
    veh = inst.vehicle(vid)
    collected = sum(
        (cost_share(inst, tid, vid) for tid in a.riders.get(vid, ())), _ZERO
    )
    return veh.operating_cost - collected
