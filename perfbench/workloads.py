"""The benchmark's workloads: their inputs, one operation each, and its checks.

Every workload builds a corpus of instance documents from ``--seed``.  The
make-up of a corpus is fixed and only the generator seeds change with
``--seed``: sizes and the exact number of compatible pairs, and for
``certify_synthesize`` also the verdict and the number of stability rows.
The documents fall into groups of about equal cost, laid out so that the
median and the tail rank fall inside a group, not between two.  A run
processes every document the same number of times, so every run sees the
same mix whatever its seed.  An operation always starts from document
text, so no instance carries its cached compatibility from one operation
to the next.

Each workload has three steps with different timing:

* ``select`` (untimed) decides the generator calls: sizes and generator
  seeds.  ``match_large`` and ``check_large`` use it to thin their
  markets, ``certify_synthesize`` to fix its verdict mix, and
  ``check_large`` to choose the assignment and payments of each document.
* ``build`` (timed as set-up) calls ``generate.generate_instance`` and
  ``instance_io.serialize_document`` and yields the documents one by one.
* ``run`` (timed per operation) is what a user of the package pays;
  ``check`` (untimed) verifies its output with :mod:`checks`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import random
from dataclasses import dataclass

import checks
from rideshare_market import allocation, cli, generate, instance_io, solver

BLOCK = 8


@dataclass(frozen=True)
class Spec:
    """One generator call; for a thinned market the pairs it keeps, and for
    ``check_large`` the assignment and payments the document carries."""

    gen_seed: int
    n: int
    m: int
    degenerate: bool = False
    mapping: dict | None = None
    payments: dict | None = None
    keep: frozenset | None = None  # the compatible pairs a thinned market keeps


@dataclass
class Doc:
    index: int
    text: str
    path: str | None = None
    extra: object = None  # per-workload input that is not document text


def _gen_seed(seed: int, slot: int, attempt: int = 0) -> int:
    return (seed * 1_000_003 + slot) * 1_000 + attempt


#: compatible pairs per traveler-vehicle cell in a thinned market
#: (``match_large``, ``check_large``); the generator gives from about 0.25
#: to 0.6 between seeds
DENSITY = 0.3


def _thinned(seed: int, slot: int, n: int, m: int):
    """A generated market thinned to exactly ``DENSITY * n * m`` compatible
    pairs.

    Operation cost grows with the number of compatible pairs, whose share
    varies twofold between generator seeds.  The first generator seed with
    enough pairs is kept, and a seeded sample of its pairs (found by the
    benchmark's own route walk) keeps their inconvenience entries; the
    others lose them, which makes those pairs incompatible.  Returns
    ``(spec, instance)``.
    """
    target = round(DENSITY * n * m)
    for attempt in range(100):
        spec = Spec(_gen_seed(seed, slot, attempt), n, m)
        inst = _generate(spec)
        pairs = _market(inst).compatible
        if len(pairs) >= target:
            keep = frozenset(random.Random(spec.gen_seed).sample(pairs, target))
            spec = dataclasses.replace(spec, keep=keep)
            return spec, _thin(inst, keep)
    raise RuntimeError(f"no market with {target} compatible pairs for slot {slot}")


def _thin(inst, keep):
    """``inst`` with only the inconvenience entries of the pairs in ``keep``."""
    travelers = tuple(
        dataclasses.replace(
            t, inconvenience={v: phi for v, phi in t.inconvenience.items() if (t.id, v) in keep}
        )
        for t in inst.travelers
    )
    return dataclasses.replace(inst, travelers=travelers)


def _mapping(assignment) -> dict:
    return dict(assignment.mapping)


class _Workload:
    """Documents held as text; the benchmark reads each one once, untimed."""

    def build(self, specs, workdir):
        for i, spec in enumerate(specs):
            yield Doc(i, instance_io.serialize_document(_generate(spec)))

    def prepare(self, docs):
        for doc in docs:
            doc.extra = checks.read_market(doc.text)

    def counters(self, output):
        """Per-operation counters the traced run takes from an output."""
        return {}


# -- match_large ----------------------------------------------------------


class MatchLarge(_Workload):
    """Parse, then the matching alone (``with_certificate=False``): the path
    the ``check`` and ``synthesize`` commands take.  The per-augmentation
    Bellman-Ford over ``Fraction`` costs does nearly all the work.

    Seven markets of each of seven sizes, each thinned to the same share of
    compatible pairs.  Sorted by cost, the median and the tail rank of the
    49 documents fall on the middle market of the fourth and the sixth size.
    """

    name = "match_large"
    SIZES = (60, 75, 90, 65, 80, 70, 85)
    #: markets per size
    MARKETS = 7
    #: operations per second on the reference machine (see README.md)
    OPS_PER_SECOND = 8

    def select(self, seed):
        sizes = [n for n in self.SIZES for _ in range(self.MARKETS)]
        return [_thinned(seed, slot, n, n // 5)[0] for slot, n in enumerate(sizes)]

    def build(self, specs, workdir):
        for i, spec in enumerate(specs):
            yield Doc(i, instance_io.serialize_document(_thin(_generate(spec), spec.keep)))

    def run(self, doc):
        inst = instance_io.parse_document(doc.text).instance
        return solver.solve_optimal_assignment(inst, with_certificate=False)

    def check(self, doc, output):
        mapping = _mapping(output.assignment)
        checks.check_assignment(doc.extra, mapping, output.objective)
        checks.check_no_negative_cycle(doc.extra, mapping)


# -- certify_synthesize ---------------------------------------------------


class CertifySynthesize(_Workload):
    """Parse, the matching with its dual certificate, then stable-payment
    synthesis on the optimal assignment.  Both callers of the exact simplex
    run here; the matching itself is negligible.

    Synthesis cost grows steeply with the number of compatible pairs and
    of stability rows, and differs by an order of magnitude between the two
    verdicts.  So each slot of a block names a verdict, a size, and the
    exact number of compatible pairs and of stability rows, and ``select``
    tries generator seeds until an instance matches.  The verdict is the
    benchmark's own decision of the stability system (difference
    constraints, :func:`checks.system_feasible`) and the rows are its own
    :func:`checks.stability_labels`.
    """

    name = "certify_synthesize"
    #: (degenerate, feasible, travelers, compatible pairs, stability rows)
    #: per slot; every instance has two vehicles.  By cost the slots form
    #: three groups, about 35, 105 and 210 ms on the reference machine,
    #: with 2, 4 and 2 slots: the median falls in the middle of the second
    #: group and the tail rank inside the third, not between two groups.
    CLASSES = (
        (False, True, 8, 7, 21),
        (False, False, 12, 10, 22),
        (False, True, 10, 8, 24),
        (False, True, 8, 7, 21),
        (False, True, 8, 7, 21),
        (True, False, 5, 10, 30),
        (False, True, 10, 8, 24),
        (False, True, 8, 7, 21),
    )
    BLOCKS = 8
    MAX_ATTEMPTS = 2000
    #: operations per second on the reference machine (see README.md)
    OPS_PER_SECOND = 9.5

    def select(self, seed):
        return [
            self._find(seed, slot, *self.CLASSES[slot % BLOCK])
            for slot in range(BLOCK * self.BLOCKS)
        ]

    def _find(self, seed, slot, deg, feasible, n, pairs, rows):
        for attempt in range(self.MAX_ATTEMPTS):
            spec = Spec(_gen_seed(seed, slot, attempt), n, 2, deg)
            inst = _generate(spec)
            mk = _market(inst)
            if len(mk.compatible) != pairs:
                continue
            mapping = _mapping(solver.solve_optimal_assignment(inst, with_certificate=False).assignment)
            if len(checks.stability_labels(mk, mapping)) != rows:
                continue
            if checks.system_feasible(mk, mapping) == feasible:
                return spec
        raise RuntimeError(f"no instance of class {(deg, feasible, n, pairs, rows)} for slot {slot}")

    def run(self, doc):
        inst = instance_io.parse_document(doc.text).instance
        solved = solver.solve_optimal_assignment(inst)
        synth = allocation.synthesize_stable_payments(inst, solved.assignment)
        return solved, synth

    def check(self, doc, output):
        solved, synth = output
        mk = doc.extra
        mapping = _mapping(solved.assignment)
        checks.check_assignment(mk, mapping, solved.objective)
        checks.check_no_negative_cycle(mk, mapping)
        cert = solved.dual_certificate
        checks.check_certificate(mk, cert.y, cert.z, solved.objective)
        if synth.feasible:
            checks.check_stable_schedule(mk, mapping, synth.schedule.entries)
        else:
            checks.check_farkas(mk, mapping, synth.row_labels, synth.certificate)


# -- check_large ----------------------------------------------------------


class CheckLarge(_Workload):
    """``rideshare-market check --assignment ... --format machine`` in-process
    on large documents that carry payments.  No matching and no LP: parsing,
    the compatibility build, the checkers and the JSON output.

    Odd documents are built stable; even ones get a few perturbed payments
    (envy, unassigned envy, exit preferred), so both verdicts occur.  Matched
    payments always lie in ``[share, v - v_min]``, so every document is
    feasible and the stability checker runs.
    """

    name = "check_large"
    #: one market per size; sorted by cost, the median and the tail rank of
    #: the 49 documents fall on the middle schedule of the fourth and the
    #: sixth market, not between two markets
    SIZES = (200, 300, 400, 267, 367, 233, 333)
    #: payment schedules checked per market
    VARIANTS = 7
    PERTURBED = 6
    #: operations per second on the reference machine (see README.md)
    OPS_PER_SECOND = 7.5

    def select(self, seed):
        specs = []
        for slot, n in enumerate(self.SIZES):
            spec, inst = _thinned(seed, slot, n, n // 5)
            mk = _market(inst)
            for variant in range(self.VARIANTS):
                perturb = (slot + variant) % 2 == 0
                mapping, payments = _check_inputs(mk, perturb, self.PERTURBED, variant)
                specs.append(dataclasses.replace(spec, mapping=mapping, payments=payments))
        return specs

    def build(self, specs, workdir):
        inst = None
        for i, spec in enumerate(specs):
            if inst is None or spec.gen_seed != specs[i - 1].gen_seed:
                inst = _thin(_generate(spec), spec.keep)
            schedule = allocation.PaymentSchedule(spec.payments)
            text = instance_io.serialize_document(inst, schedule)
            path = os.path.join(workdir, f"check-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            yield Doc(i, text, path, spec)

    def prepare(self, docs):
        """The expected verdict of each document: its market as read from
        the first of its documents, with the payments the benchmark chose."""
        markets = {}
        for doc in docs:
            spec = doc.extra
            if spec.gen_seed not in markets:
                markets[spec.gen_seed] = checks.read_market(doc.text)
            mk = dataclasses.replace(markets[spec.gen_seed], payments=spec.payments)
            riders = ",".join(f"{t}={v}" for t, v in spec.mapping.items() if v is not None)
            doc.extra = (spec.mapping, riders, checks.evaluate_check(mk, spec.mapping))

    def run(self, doc):
        _, riders, _ = doc.extra
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(["check", doc.path, "--assignment", riders, "--format", "machine"])
        if status not in (0, 1):
            raise RuntimeError(f"check exited with status {status}")
        return status, out.getvalue()

    def counters(self, output):
        return {"cli.output_bytes": len(output[1].encode("utf-8"))}

    def check(self, doc, output):
        mapping, _, expected = doc.extra
        checks.check_cli_output(expected, mapping, *output)


def _check_inputs(mk, perturb: bool, count: int, variant: int = 0):
    """A greedy assignment and a payment for every compatible pair.

    A traveler rides the first compatible vehicle, counting from its
    ``variant``-th option, with a free seat whose
    ride value can stay nonnegative (``v >= 2 * share``) and whose payment
    interval ``[share, v - v_min]`` is not empty; it pays ``share``.  Every
    other pair is priced at break-even, ``max(0, v - share)``, which makes
    every alternative worth at most 0.  Perturbing prices ``count / 3``
    alternatives of unassigned travelers at 0 (unassigned envy), raises as
    many matched payments to ``v - v_min`` (exit preferred, which also makes
    the rider envy every alternative), and prices as many alternatives of
    other riders at 0 (envy where the alternative's surplus beats the ride).
    """
    load = dict.fromkeys(mk.vehicles, 0)
    mapping = {}
    payments = {}
    for tid in mk.travelers:
        mapping[tid] = None
        opts = mk.options(tid)
        start = variant % len(opts) if opts else 0
        for vid in opts[start:] + opts[:start]:
            pair = (tid, vid)
            share, value = mk.share[pair], mk.value[pair]
            if load[vid] < mk.capacity[vid] and 2 * share <= value and share <= value - mk.v_min[tid]:
                mapping[tid] = vid
                load[vid] += 1
                payments[pair] = share
                break
    for pair in mk.compatible:
        payments.setdefault(pair, max(0, mk.surplus(pair)))
    quota = dict.fromkeys(("unassigned_envy", "exit_preferred", "envy"), count // 3 if perturb else 0)
    for tid in mk.travelers:
        own = mapping[tid]
        alts = [v for v in mk.options(tid) if v != own and mk.surplus((tid, v)) > 0]
        if own is None:
            kind = "unassigned_envy" if alts else None
        elif quota["exit_preferred"] and mk.share[(tid, own)] > mk.v_min[tid]:
            kind = "exit_preferred"
        else:
            kind = "envy" if alts else None
        if kind is None or not quota[kind]:
            continue
        quota[kind] -= 1
        if kind == "exit_preferred":
            payments[(tid, own)] = mk.value[(tid, own)] - mk.v_min[tid]
        else:
            payments[(tid, alts[0])] = 0
    return mapping, payments


def _market(inst):
    """The instance as :func:`checks.read_market` reads it from a document."""
    return checks.read_market({
        "network": {"edges": [[e.id, e.tail, e.head] for e in inst.network.edges]},
        "travelers": [
            {
                "id": t.id,
                "origin": t.od.origin,
                "destination": t.od.destination,
                "v_max": t.v_max,
                "v_min": t.v_min,
                "inconvenience": t.inconvenience,
            }
            for t in inst.travelers
        ],
        "vehicles": [
            {"id": v.id, "route": v.route.edge_ids, "capacity": v.capacity, "operating_cost": v.operating_cost}
            for v in inst.vehicles
        ],
        "options": {"cost_share_mode": inst.cost_share_mode},
    })


def _generate(spec: Spec):
    return generate.generate_instance(spec.gen_seed, spec.n, spec.m, degenerate=spec.degenerate)


WORKLOADS = {w.name: w for w in (MatchLarge(), CertifySynthesize(), CheckLarge())}
