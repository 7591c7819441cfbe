"""Scale ladder: time the matching's and the check's layers on three
generated markets and the tier-1 test run, and write the figures as one
JSON file.

Run from anywhere, with the standard library only::

    python3 bench/ladder.py -o BENCH_<n>.json

Each market is ``generate_instance(5, n, n // 5)`` at n = 300, 600 and
1000, serialized and parsed back.  Each layer is timed with
``time.perf_counter``: the serialization, the parse, the pair table, then
the matching's three steps: stage 1's shortest augmenting paths, with its
augmentations, relaxations and shortcut seatings; the seat prices' one
Dijkstra run; and the tie rule's greedy, with its searches and moves.
``matching_s`` is their sum; an older file that has no such figure reads
as its one-stage matching, Charnes' perturbation of the pair weights plus
the kernel over them (``perturbed_s + kernel_s``).  That one-stage matching,
now the test oracle ``oracles.charnes_matching``, is timed for the record
(``charnes_s``).  The dual certificate at the optimum is each rider's pair
weight minus its seat price, checked by ``verify_dual_certificate``
(``certificate_s``).  The stable-payment synthesis runs at
that optimum in both ``favor`` modes, each with its seconds, the seconds
of the first read of its payment-only stability rows (a view the
synthesis itself never builds; since the result keeps the rows it solved,
``synthesis_*_view_s`` times ``_payment_rows`` over them alone, not a
second build of the system), their number, its feasibility, and the
edges and successful relaxations of its one Bellman-Ford run, read by
wrapping ``allocation.bellman_ford``.
The check path then prices the kernel's optimum: each matched pair pays
its cost share and every other pair its break-even ``max(0, surplus)``.
The priced document is serialized and parsed back, timed, with whether
the parsed schedule is built on the pair table's own pairs
(``priced_in_table_order``, which lets the checker read it as it is),
and ``check_payments`` runs on it in literal and classic-core mode, each
timed, with its stability verdict (``null`` when the allocation is
infeasible and stability is undefined), and ``welfare_paper`` reads it at
the optimum, timed on a fresh copy of the parsed schedule each run, so
that no view it builds is reused.  The CLI layer runs last: the
priced document is written to a temporary file and ``cli.main`` checks it
in-process at the optimum's riders (``check PATH --assignment ... --format
machine``, standard output captured), timed, with its exit status, and
then again with one override, ``--payments TID:VID=share``, that prices
the first matched pair at the cost share it already pays.
The many-denominator family rewrites the same market with ``1/p`` added
to each traveler's ``v_max``, ``p`` an odd prime of its own, serialized:
the parse and the first pair table of that document are timed, and
``check_payments`` in literal mode at the kernel's optimum, priced as
above on its own table, with the bit length of the table's ``den`` and
of the largest ``den`` of a parsed traveler (``prime_*``).
The tier-1 tests run in a child process, timed once on the wall clock,
and ``src_lines`` counts the lines of the package's modules that are
neither blank nor a comment alone.  The pair table is read by its
columns: ``pairs`` and the shares and surpluses aligned with them.

Method: every timed call runs with the cyclic garbage collector paused,
as the CLI runs its commands, so no collection of earlier garbage lands
in a figure.  A call that takes under ``ONCE_S`` seconds runs ``K`` times
and its figure is the median; a longer one runs once.  The record names
``K`` and ``ONCE_S``, and holds the host's pace, ``pace.sample()`` of
``perfbench/pace.py`` (the least of three samples), before and after the
ladder and after each row (``pace_s``), so that a slow spell shows in
the row it slowed: a figure times ``pace.REF_S / pace`` is its time at
the benchmark's reference pace.  The tier-1 run records the mean of a
pace sample on each side of it (``pace_s``) and its wall time scaled so
(``wall_ref_s``).  When the output is ``BENCH_<n>.json`` and an
older ``BENCH_<k>.json`` lies beside it, the record also names the newest
such file and holds each figure of each size, the tier-1 run and the pace
in both as ``[before, after]``, and ``src_lines`` so, ``null`` before
when the older file has no count.  Compare files, not anecdotes, and read
small differences against the two paces.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pace  # noqa: E402
from rideshare_market import allocation, cli, oracles, solver  # noqa: E402
from rideshare_market.allocation import (  # noqa: E402
    PaymentSchedule,
    check_payments,
    synthesize_stable_payments,
)
from rideshare_market.generate import generate_instance  # noqa: E402
from rideshare_market.instance_io import parse_document, serialize_document  # noqa: E402
from rideshare_market.market import (  # noqa: E402
    UNASSIGNED,
    Assignment,
    MarketInstance,
    welfare_paper,
)

SIZES = (300, 600, 1000)
#: runs of a call that takes under ONCE_S seconds; its figure is their median
K = 5
ONCE_S = 1.0


def _timed(fn, *args):
    """``(out, seconds)`` of ``fn(*args)``, run with the collector paused:
    the median of ``K`` runs, or one run of ``ONCE_S`` seconds or more."""
    times = []
    while not times or times[0] < ONCE_S and len(times) < K:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            out = fn(*args)
            times.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
    return out, round(statistics.median(times), 4)


def _pace() -> float:
    return min(pace.sample() for _ in range(3))


def ladder_row(n: int) -> dict:
    market = generate_instance(5, n, n // 5)
    text, serialize_s = _timed(serialize_document, market)
    doc, parse_s = _timed(parse_document, text)
    inst = doc.instance
    # the cached property's own build, so that each run builds the table
    _, pair_table_s = _timed(MarketInstance.compatibility.func, inst)
    matrix = inst.compatibility
    _, scaled = solver._pair_weights(inst)
    travelers = [t.id for t in inst.travelers]
    vehicles = [v.id for v in inst.vehicles]
    cap = [v.capacity for v in inst.vehicles]
    adj = solver._rows(scaled, travelers, vehicles)
    paths, stage1_s = _timed(solver.shortest_augmenting_paths, adj, cap)
    z, seat_prices_s = _timed(solver.seat_prices, adj, cap, paths.match, paths.pot)
    greedy, greedy_s = _timed(solver.first_optimum, adj, cap, paths.match, z)
    match, searches, moves = greedy
    _, charnes_s = _timed(oracles.charnes_matching, inst)
    a = Assignment(
        {tid: UNASSIGNED if j is None else vehicles[j] for tid, j in zip(travelers, match)}
    )
    _, certificate_s = _timed(certify, inst, scaled, adj, match, z)
    row = {
        "n": n,
        "m": n // 5,
        "pairs": len(matrix.pairs),
        "serialize_s": serialize_s,
        "parse_s": parse_s,
        "pair_table_s": pair_table_s,
        "matching_s": round(stage1_s + seat_prices_s + greedy_s, 4),
        "stage1_s": stage1_s,
        "augmentations": paths.augmentations,
        "relaxations": paths.relaxations,
        "shortcuts": paths.shortcuts,
        "seat_prices_s": seat_prices_s,
        "greedy_s": greedy_s,
        "searches": searches,
        "moves": moves,
        "charnes_s": charnes_s,
        "certificate_s": certificate_s,
    }
    for favor in ("travelers", "vehicles"):
        with bellman_ford_runs() as runs:
            synth, row[f"synthesis_{favor}_s"] = _timed(synthesize_stable_payments, inst, a, favor)
        # a fresh copy of the result has its views yet to build
        rows, row[f"synthesis_{favor}_view_s"] = _timed(lambda: dataclasses.replace(synth).rows)
        row[f"synthesis_{favor}_rows"] = len(rows)
        row[f"synthesis_{favor}_feasible"] = synth.feasible
        [(row[f"synthesis_{favor}_edges"], row[f"synthesis_{favor}_relaxations"])] = set(runs)
    return {**row, **check_path(inst, a), **prime_row(market, a)}


@contextlib.contextmanager
def bellman_ford_runs():
    """The ``(edges, relaxations)`` of each Bellman-Ford run the synthesis
    makes inside the block."""
    runs = []

    def recorded(nodes, edges, source):
        out = solver.bellman_ford(nodes, edges, source)
        runs.append((len(edges), out[3]))
        return out

    allocation.bellman_ford = recorded
    try:
        yield runs
    finally:
        allocation.bellman_ford = solver.bellman_ford


def certify(inst, scaled, adj, match, z):
    """The dual certificate of the optimum ``match`` at the seat prices
    ``z``, checked."""
    travelers = [t.id for t in inst.travelers]
    certificate = solver._dual(adj, match, z, travelers, [v.id for v in inst.vehicles])
    objective = sum(adj[i][j] for i, j in enumerate(match) if j is not None)
    solver.verify_dual_certificate(inst, scaled, certificate, objective)


def check_path(inst, a) -> dict:
    """Parse, check and CLI check times of the kernel's optimum ``a``,
    priced at each matched pair's cost share and every other pair's
    break-even."""
    matrix = inst.compatibility
    pays = {
        pair: Fraction(share if a.vehicle_of(pair[0]) == pair[1] else max(0, surplus), matrix.den)
        for pair, share, surplus in zip(matrix.pairs, matrix.share, matrix.surplus)
    }
    text, priced_serialize_s = _timed(serialize_document, inst, PaymentSchedule(pays))
    doc, priced_parse_s = _timed(parse_document, text)
    row = {
        "priced_serialize_s": priced_serialize_s,
        "priced_parse_s": priced_parse_s,
        "priced_in_table_order": doc.payments.pairs is doc.instance.compatibility.pairs,
    }
    for mode, classic_core in (("literal", False), ("classic", True)):
        args = (doc.instance, a, doc.payments, classic_core)
        (_, stability), check_s = _timed(check_payments, *args)
        row[f"check_{mode}_s"] = check_s
        row[f"check_{mode}_verdict"] = None if stability is None else stability.verdict
    t = doc.payments
    _, row["welfare_paper_s"] = _timed(
        lambda: welfare_paper(doc.instance, a, PaymentSchedule.scaled(t.pairs, t.den, t.ints))
    )
    riders = ",".join(f"{tid}={vid}" for tid, vid in a.assigned_pairs())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "priced.json"
        path.write_text(text, encoding="utf-8")
        argv = ["check", str(path), "--assignment", riders, "--format", "machine"]
        with contextlib.redirect_stdout(io.StringIO()):
            status, row["cli_check_s"] = _timed(cli.main, argv)
            (tid, vid), *_ = a.assigned_pairs()
            override = ["--payments", f"{tid}:{vid}={pays[(tid, vid)]}"]
            _, row["cli_check_override_s"] = _timed(cli.main, argv + override)
    row["cli_check_status"] = status
    return row


def prime_row(market, a) -> dict:
    """Parse, first pair table and literal check times of ``market`` with
    ``1/p`` added to each traveler's ``v_max``, ``p`` an odd prime of its
    own, checked at ``a``: each matched pair pays its cost share and every
    other pair its break-even ``max(0, surplus)``."""
    primes = [p for p in range(3, 10**4, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]
    travelers = [
        dataclasses.replace(t, v_max=t.v_max + Fraction(1, p))
        for t, p in zip(market.travelers, primes)
    ]
    text = serialize_document(dataclasses.replace(market, travelers=travelers))
    doc, parse_s = _timed(parse_document, text)
    inst = doc.instance
    _, pair_table_s = _timed(MarketInstance.compatibility.func, inst)
    matrix = inst.compatibility
    ints = [
        share if a.vehicle_of(tid) == vid else max(0, surplus)
        for (tid, vid), share, surplus in zip(matrix.pairs, matrix.share, matrix.surplus)
    ]
    schedule = PaymentSchedule.scaled(matrix.pairs, matrix.den, ints)
    (_, stability), check_s = _timed(check_payments, inst, a, schedule)
    return {
        "prime_parse_s": parse_s,
        "prime_pair_table_s": pair_table_s,
        "prime_check_literal_s": check_s,
        "prime_check_literal_verdict": None if stability is None else stability.verdict,
        "prime_den_bits": matrix.den.bit_length(),
        "prime_traveler_den_bits": max(t.ints[0].bit_length() for t in inst.travelers),
    }


def tier1() -> dict:
    """The tier-1 command of ROADMAP.md, from the repository root."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    wall_s = round(time.perf_counter() - start, 2)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(k) for k, word in re.findall(r"(\d+) (passed|failed|errors?|skipped)", summary)}
    return {"wall_s": wall_s, "exit_status": proc.returncode, **counts}


def src_lines() -> int:
    """The package's non-blank, non-comment lines."""
    lines = [
        line.lstrip()
        for path in sorted((ROOT / "src" / "rideshare_market").glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    return sum(1 for line in lines if line and not line.startswith("#"))


def previous(output: Path) -> Path | None:
    """The ladder file that ``output`` follows: the highest-numbered
    ``BENCH_<k>.json`` beside it, ``k`` below its own number, if any."""
    number = re.compile(r"BENCH_(\d+)\.json")
    own = number.fullmatch(output.name)
    older = {}
    for path in output.parent.glob("BENCH_*.json"):
        k = number.fullmatch(path.name)
        if own and k and int(k[1]) < int(own[1]):
            older[int(k[1])] = path
    return older[max(older)] if older else None


def delta(baseline: dict, ladder: list) -> dict:
    """``[before, after]`` for each figure of each size in both records; a
    row with no ``matching_s`` ran the one-stage matching, which is read as
    its perturbation plus its kernel."""
    before = {}
    for row in baseline["ladder"]:
        if "matching_s" not in row and "kernel_s" in row:
            row = {**row, "matching_s": round(row["perturbed_s"] + row["kernel_s"], 4)}
        before[row["n"]] = row
    return {
        f"n={row['n']}": {k: [old[k], v] for k, v in row.items() if k in old}
        for row in ladder
        if (old := before.get(row["n"])) is not None
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-o", "--output", required=True, help="path of the JSON file to write")
    args = parser.parse_args(argv)
    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "method": {"k": K, "once_s": ONCE_S, "collector": "paused around each timed call"},
        "pace": {"reference_s": pace.REF_S, "before_s": round(_pace(), 5)},
        "ladder": [],
    }
    for n in SIZES:
        record["ladder"].append({**ladder_row(n), "pace_s": round(_pace(), 5)})
        print(json.dumps(record["ladder"][-1]), file=sys.stderr)
    record["pace"]["after_s"] = round(_pace(), 5)
    before_s = _pace()
    record["tier1"] = tier1()
    # the pace while the tests ran: the mean of a sample on each side
    record["tier1"]["pace_s"] = pace_s = round((before_s + _pace()) / 2, 5)
    record["tier1"]["wall_ref_s"] = round(record["tier1"]["wall_s"] * pace.REF_S / pace_s, 2)
    print(json.dumps(record["tier1"]), file=sys.stderr)
    record["src_lines"] = src_lines()
    before = previous(Path(args.output))
    if before is not None:
        record["delta_against"] = before.name
        baseline = json.loads(before.read_text())
        record["delta"] = delta(baseline, record["ladder"])
        for part in ("tier1", "pace"):
            old = baseline.get(part, {})
            record["delta"][part] = {k: [old[k], v] for k, v in record[part].items() if k in old}
        record["delta"]["src_lines"] = [baseline.get("src_lines"), record["src_lines"]]
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
