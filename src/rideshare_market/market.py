"""Travelers, vehicles, market instances, and every scalar market formula.

Money enters and leaves as :class:`fractions.Fraction`; the package never
rounds.  The range checks of :class:`Traveler` (``0 <= v_min <= v_max`` and
``0 <= inconvenience <= v_max``) run once, as the traveler is built, on
integers: each bound and value as ``numerator / denominator``,
cross-multiplied.  The pair table holds each compatible pair's terms as
``int``s over the instance's least common denominator, and every reader
compares those integers; the scalar formulas make one ``Fraction`` per
answer, and ``Fraction``s otherwise appear only in violations and output.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from rideshare_market.errors import IncompatiblePairError, ValidationError
from rideshare_market.network import (
    Network, ODPair, Route, route_vertex_sequence, validate_od
)

#: Sentinel marking a traveler that rides no vehicle.
UNASSIGNED = None

PER_SEAT = "per_seat"
EXPLICIT = "explicit"

_ZERO = Fraction(0)


def _money(x) -> Fraction:
    # ``type`` first: ``isinstance(x, Fraction)`` goes through ``ABCMeta``, which is slow
    return x if type(x) is Fraction or isinstance(x, Fraction) else Fraction(x)


def scale_to_integers(values, den=1):
    """``(D, ints)``: the least common multiple ``D`` of ``den`` and the
    denominators of the rationals ``values``, and each value times ``D``,
    an exact ``int``.  Each distinct denominator is divided into ``D``
    once.  Scaling by a positive factor keeps every sum and comparison, so
    shortest paths and inequalities over ``ints`` are those over
    ``values``, with every value ``D`` times larger."""
    ratios = [v.as_integer_ratio() for v in values]
    distinct = {d for _, d in ratios}
    # reduced pairwise in a balanced tree, two large operands meet only near
    # the root; left to right, every step multiplies a growing big integer
    lcms = list(distinct)
    while len(lcms) > 2:
        lcms = [math.lcm(*lcms[k : k + 2]) for k in range(0, len(lcms), 2)]
    common = math.lcm(den, *lcms)
    cofactor = {d: common // d for d in distinct}
    return common, [n * cofactor[d] for n, d in ratios]


@dataclass(frozen=True)
class Traveler:
    id: str
    od: ODPair
    v_max: Fraction
    v_min: Fraction
    #: vehicle id -> inconvenience (money).  A vehicle is compatible only if
    #: its route covers ``od`` *and* an entry exists here.
    inconvenience: dict

    def __post_init__(self):
        v_max, v_min = _money(self.v_max), _money(self.v_min)
        object.__setattr__(self, "v_max", v_max)
        object.__setattr__(self, "v_min", v_min)
        # 0 <= n/d <= hi/hd as integers: n >= 0 and n * hd <= hi * d, for d, hd > 0
        hi, hd = v_max.as_integer_ratio()
        n, d = v_min.as_integer_ratio()
        errors = []
        if not (n >= 0 and n * hd <= hi * d):
            errors.append(f"traveler {self.id!r}: needs 0 <= v_min <= v_max")
        inconvenience = {}
        for vid, phi in self.inconvenience.items():
            inconvenience[vid] = phi = _money(phi)
            n, d = phi.as_integer_ratio()
            if not (n >= 0 and n * hd <= hi * d):
                errors.append(
                    f"traveler {self.id!r}: inconvenience for vehicle {vid!r} "
                    f"outside [0, v_max]"
                )
        object.__setattr__(self, "inconvenience", inconvenience)
        if errors:
            raise ValidationError(errors)


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


@dataclass(frozen=True)
class CompatibilityMatrix:
    """The compatible traveler x vehicle pairs, each with its terms as
    integers over one common denominator.  A pair is compatible exactly
    when it is a key of ``entries``."""

    #: the least common denominator of the instance's money
    den: int
    #: (traveler id, vehicle id) -> (valuation, share, surplus), each times
    #: ``den``, in instance order
    entries: dict
    #: traveler id -> v_min times ``den``, for every traveler
    v_min: dict


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
        # each route's first and last position of every vertex it visits:
        # walked once, here, and read by the pair table
        positions = []
        for v in self.vehicles:
            if v.id in seen:
                errors.append(f"instance: duplicate vehicle id {v.id!r}")
            seen.add(v.id)
            try:
                seq = route_vertex_sequence(self.network, v.route)
            except ValidationError as exc:
                errors.append(f"vehicle {v.id!r}: {exc}")
                continue
            first, last = {}, {}
            for pos, x in enumerate(seq):
                first.setdefault(x, pos)
                last[x] = pos
            positions.append((first, last))
        object.__setattr__(self, "_positions", positions)
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
        mode a compatible pair without a cost share is a validation error."""
        explicit = self.cost_share_mode == EXPLICIT
        index = {v.id: k for k, v in enumerate(self.vehicles)}
        # per pair: its ids, its vehicle's index and its inconvenience; its
        # explicit share, or in per-seat mode one share per served vehicle
        pairs, cols, phis, shares, errors = [], [], [], [], []
        for t in self.travelers:
            origin, destination = t.od.origin, t.od.destination
            # the traveler's own entries, in vehicle order; an unknown id names no vehicle
            own = [(index[vid], phi) for vid, phi in t.inconvenience.items() if vid in index]
            own.sort()
            for k, phi in own:
                v = self.vehicles[k]
                first, last = self._positions[k]
                # the route picks up before it drops off: see visits_in_order
                pickup = first.get(origin)
                if pickup is None or pickup >= last.get(destination, -1):
                    continue
                if explicit:
                    share = (v.cost_shares or {}).get(t.id)
                    if share is None:
                        errors.append(
                            f"vehicle {v.id!r}: explicit mode but no cost share for "
                            f"compatible traveler {t.id!r}"
                        )
                        continue
                    shares.append(share)
                pairs.append((t.id, v.id))
                cols.append(k)
                phis.append(phi)
        if errors:
            raise ValidationError(errors)
        if not explicit:
            served = sorted(set(cols))
            shares = [self.vehicles[k].operating_cost / self.vehicles[k].capacity for k in served]
        bounds = [x for t in self.travelers for x in (t.v_max, t.v_min)]
        den, ints = scale_to_integers(bounds + phis + shares)
        # ints: v_max and v_min per traveler, phi per pair, then the shares
        tids, b, p = [t.id for t in self.travelers], len(bounds), len(bounds) + len(phis)
        v_max = dict(zip(tids, ints[0:b:2]))
        v_min = dict(zip(tids, ints[1:b:2]))
        shares = ints[p:]
        if not explicit:
            seat = dict(zip(served, shares))
            shares = [seat[k] for k in cols]
        entries = {}
        for pair, phi, share in zip(pairs, ints[b:p], shares):
            value = v_max[pair[0]] - phi
            entries[pair] = (value, share, value - share)
        return CompatibilityMatrix(den, entries, v_min)

    @cached_property
    def _options(self):
        options = {t.id: [] for t in self.travelers}
        for tid, vid in self.compatibility.entries:
            options[tid].append(vid)
        return options

    def compatible_pairs(self):
        """Compatible pairs in instance (traveler, vehicle) order."""
        return list(self.compatibility.entries)

    def compatible_vehicles(self, tid):
        return list(self._options.get(tid, ()))


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
        if (tid, vid) not in inst.compatibility.entries:
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


def valuation(t: Traveler, vid) -> Fraction:
    """Traveler ``t``'s satisfaction value for riding vehicle ``vid``:
    the upper bound minus the pair's inconvenience."""
    if vid not in t.inconvenience:
        raise IncompatiblePairError(
            f"traveler {t.id!r} has no inconvenience entry for vehicle {vid!r}"
        )
    return t.v_max - t.inconvenience[vid]


def _terms(inst: MarketInstance, tid, vid) -> tuple:
    """A compatible pair's integer (valuation, share, surplus) over
    ``inst.compatibility.den``; any other pair raises
    :class:`IncompatiblePairError`."""
    try:
        return inst.compatibility.entries[(tid, vid)]
    except KeyError:
        raise IncompatiblePairError(f"pair ({tid!r}, {vid!r}) is not compatible") from None


def cost_share(inst: MarketInstance, tid, vid) -> Fraction:
    """Traveler ``tid``'s share of vehicle ``vid``'s operating cost, read
    from the instance's pair table.

    Per-seat mode charges ``operating_cost / capacity`` regardless of the
    realized occupancy; explicit mode uses the vehicle's listed share.
    Either way the share is independent of the assignment.  Raises
    :class:`IncompatiblePairError` for a pair that is not compatible.
    """
    return Fraction(_terms(inst, tid, vid)[1], inst.compatibility.den)


def utility(inst: MarketInstance, tid, vid, t_ij) -> Fraction:
    """Quasi-linear rider utility: valuation minus payment.

    ``vid`` may be ``UNASSIGNED``, in which case the utility is 0 by
    convention.
    """
    if vid is UNASSIGNED:
        return _ZERO
    value = _terms(inst, tid, vid)[0]
    t_ij = _money(t_ij)
    if t_ij < 0:
        raise ValidationError(f"payment for ({tid!r}, {vid!r}) is negative")
    return Fraction(value, inst.compatibility.den) - t_ij


def surplus(inst: MarketInstance, tid, vid) -> Fraction:
    """Joint pie of a pairing: valuation minus cost share.  Independent of
    how the internal payment splits it."""
    return Fraction(_terms(inst, tid, vid)[2], inst.compatibility.den)


def surplus_matrix(inst: MarketInstance) -> dict:
    """Pair surplus for every compatible pair.  Incompatible pairs are
    simply absent; there is no numeric sentinel."""
    den = inst.compatibility.den
    return {p: Fraction(u, den) for p, (_, _, u) in inst.compatibility.entries.items()}


def welfare_paper(inst: MarketInstance, a: Assignment, t) -> Fraction:
    """Total rider utility plus the bookkeeping term for idle vehicles.

    A vehicle serving nobody contributes its full operating cost (the
    market's convention for unassigned capacity); each riding traveler
    contributes valuation minus payment.  ``t`` is a
    :class:`~rideshare_market.allocation.PaymentSchedule` over the
    compatible pairs.
    """
    entries = t.entries
    total = _ZERO
    for tid, vid in a.assigned_pairs():
        if (tid, vid) not in entries:
            raise ValidationError(
                f"welfare: no payment for assigned pair ({tid!r}, {vid!r})"
            )
        total += utility(inst, tid, vid, entries[(tid, vid)])
    used = a.assigned_vehicles()
    for v in inst.vehicles:
        if v.id not in used:
            total += v.operating_cost
    return total


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
