import ast
import dataclasses
import functools
import gc
import importlib.util
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

import rideshare_market
from rideshare_market import (
    Assignment,
    MarketInstance,
    PaymentSchedule,
    ValidationError,
    allocation,
    assignment_lp_relaxation,
    cli,
    generate,
    instance_io,
    lp,
    market,
    network,
    oracle_optimum,
    oracles,
    solve_optimal_assignment,
    solver,
    surplus,
    synthesize_stable_payments,
)
from rideshare_market.cli import main
from rideshare_market.generate import generate_instance
from rideshare_market.instance_io import InstanceDocument, parse_document, serialize_document


def test_package_has_no_assert_statements():
    """Production checks must also run under ``python -O``, which strips
    ``assert``: the package raises named errors instead."""
    package = Path(rideshare_market.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_production_paths_build_no_dense_lp(canonical, tmp_path, monkeypatch, capsys):
    """Matching, certificates, synthesis and the CLI never build an LP row,
    an LP problem or a simplex solve, nor the payment-only stability rows:
    only ``SynthesisResult``'s views build those, ``rows`` and
    ``certificate`` for a reader and ``problem`` for the simplex oracle.
    ``synthesize`` and ``report`` print the same on an infeasible market
    whether or not the views can be built."""

    def forbidden(*args, **kwargs):
        raise AssertionError("dense LP built on a production path")

    path = tmp_path / "instance.json"
    path.write_text(serialize_document(canonical))
    infeasible = tmp_path / "infeasible.json"
    infeasible.write_text(serialize_document(generate_instance(678, 3, 3)))
    commands = [
        ["synthesize", str(infeasible)],
        ["report", str(infeasible)],
        ["synthesize", str(path), "--assignment", "T2=V1", "--format", "machine"],
    ]
    printed = [(main(argv), capsys.readouterr().out) for argv in commands]
    assert [status for status, _ in printed] == [1, 0, 1]
    monkeypatch.setattr(lp.Row, "__post_init__", forbidden)
    monkeypatch.setattr(lp.LPProblem, "__post_init__", forbidden)
    monkeypatch.setattr(lp, "lp_solve", forbidden)
    monkeypatch.setattr(allocation.SynthesisResult, "_view", property(forbidden))
    assert solve_optimal_assignment(canonical).dual_certificate is not None
    results = [
        synthesize_stable_payments(canonical, Assignment(mapping), favor=favor)
        for mapping in ({"T1": "V1", "T2": "V1"}, {"T1": None, "T2": "V1"})
        for favor in ("travelers", "vehicles")
    ]
    assert [res.feasible for res in results] == [True, True, False, False]
    assert [res.proof for res in results[2:]] == [((("no_blocking", ("T1", "V1")), -1),)] * 2
    with pytest.raises(AssertionError, match="production path"):
        results[2].rows
    assert main(["check", str(path)]) == 0
    assert main(["report", str(path)]) == 0
    capsys.readouterr()
    assert [(main(argv), capsys.readouterr().out) for argv in commands] == printed
    monkeypatch.undo()
    for res in results:
        assert len(res.problem.rows) == len(res.rows)


def test_check_path_reaches_every_verdict(tmp_path, capsys):
    """``check_payments`` in both modes, on feasible and infeasible
    schedules, ``check`` with and without ``--classic-core``, in both
    formats, on documents that carry payments and with an override in
    sevenths, the certified matching under either objective, with payments
    in sevenths that do not divide the table's ``den``, and the synthesis
    in both ``favor`` modes reach every verdict they have."""
    cases = []
    for seed in range(10):
        inst = generate_instance(8500 + seed, n=4 + seed, m=1 + seed % 3, degenerate=seed % 3 == 0)
        a = solve_optimal_assignment(inst, with_certificate=False).assignment
        synth = synthesize_stable_payments(inst, a)
        even = {p: max(F(0), surplus(inst, *p)) for p in inst.compatible_pairs()}
        base = synth.schedule.entries if synth.feasible else even
        rng = random.Random(seed)
        # the stable or break-even schedule, the same with every off-match
        # payment moved onto thirds, and a random one in thirds
        schedules = [
            PaymentSchedule(base),
            PaymentSchedule(
                {
                    p: x if a.vehicle_of(p[0]) == p[1] else F(rng.randint(0, 36), 3)
                    for p, x in base.items()
                }
            ),
            PaymentSchedule({p: F(rng.randint(0, 36), 3) for p in base}),
        ]
        path = tmp_path / f"priced-{seed}.json"
        path.write_text(serialize_document(inst, schedules[seed % 3]))
        spec = ",".join(f"{tid}={vid}" for tid, vid in a.assigned_pairs()) or ","
        override = "{}:{}=1/7".format(*inst.compatible_pairs()[0])
        assert inst.compatibility.den % 7
        sevenths = PaymentSchedule(
            {p: F(7 * rng.randint(0, 9) + rng.randint(1, 6), 7) for p in base}
        )
        cases.append((inst, a, schedules, path, spec, override, sevenths))
    verdicts, statuses, feasible = set(), set(), set()
    for inst, a, schedules, path, spec, override, sevenths in cases:
        for fixed in (None, sevenths):
            assert solve_optimal_assignment(inst, payments=fixed).dual_certificate is not None
        for b in (a, Assignment(dict.fromkeys(a.mapping))):
            for favor in ("travelers", "vehicles"):
                feasible.add(synthesize_stable_payments(inst, b, favor=favor).feasible)
        for t in schedules:
            for classic_core in (False, True):
                _, stab = allocation.check_payments(inst, a, t, classic_core)
                verdicts.add(None if stab is None else stab.verdict)
        for fmt in ("text", "machine"):
            for mode in ([], ["--classic-core"]):
                argv = ["check", str(path), "--assignment", spec, "--format", fmt, *mode]
                statuses.add(main(argv))
        statuses.add(main(["check", str(path), "--assignment", spec, "--payments", override]))
    capsys.readouterr()
    assert {True, False, None} <= verdicts
    assert statuses == {0, 1}
    assert feasible == {True, False}


def test_pair_table_keeps_the_shape_the_tracer_reads():
    """``perfbench/tracing.py`` times the pair table by replacing the
    ``functools.cached_property`` ``MarketInstance.compatibility`` and
    counts ``market.pairs`` as the truthy values of
    ``CompatibilityMatrix.entries``: the property stays cached, and
    ``entries`` maps exactly the compatible pairs, in order, to 3-tuples of
    ``int``s."""
    assert isinstance(vars(MarketInstance)["compatibility"], functools.cached_property)
    pairs = 0
    for seed in range(12):
        inst = generate_instance(seed, n=2 + seed, m=1 + seed % 4, degenerate=seed % 3 == 0)
        entries = inst.compatibility.entries
        assert list(entries) == inst.compatible_pairs()
        assert all(
            type(terms) is tuple and len(terms) == 3 and all(type(x) is int for x in terms)
            for terms in entries.values()
        )
        pairs += len(entries)
    assert pairs > 50


def test_oracles_do_not_read_the_solver_weights(monkeypatch):
    """The brute force and the LP relaxation price the pairs from the
    public formulas, not from the solver's integer weights: with
    ``solver._pair_weights`` made to raise, through every name bound to
    it, they still agree with the solver's optimum under either objective,
    and a missing payment is still a :class:`ValidationError`."""
    cases = []
    for seed in range(8):
        n, m = 3 + seed % 4, 1 + seed % 3
        inst = generate_instance(8600 + seed, n=n, m=m, degenerate=seed % 2 == 1)
        pairs = inst.compatible_pairs()
        pays = PaymentSchedule({p: F(seed + k % 4, 3) for k, p in enumerate(pairs)})
        for fixed in (None, pays):
            res = solve_optimal_assignment(inst, payments=fixed, with_certificate=False)
            cases.append((inst, fixed, res))

    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle read the solver's weights")

    # a module that imported the function holds its own name for it
    monkeypatch.setattr(solver._pair_weights, "__code__", forbidden.__code__)
    for inst, fixed, res in cases:
        objective, argmax = oracle_optimum(inst, payments=fixed)
        assert objective == res.objective
        assert res.assignment.as_key() == argmax[0].as_key()
        _, outcome = assignment_lp_relaxation(inst, payments=fixed)
        assert isinstance(outcome, lp.Optimal) and outcome.value == res.objective
    inst, fixed, _ = cases[-1]
    short = PaymentSchedule(dict(list(fixed.entries.items())[1:]))
    for oracle in (oracle_optimum, assignment_lp_relaxation):
        with pytest.raises(ValidationError, match="no payment for compatible pair"):
            oracle(inst, payments=short)


def test_production_modules_do_not_import_the_simplex():
    """Importing the solver, allocation and the CLI, and so the package,
    leaves the simplex unloaded, and the package does not re-export the
    simplex's names: they are imported from ``rideshare_market.lp``."""
    code = (
        "import sys\n"
        "import rideshare_market.solver, rideshare_market.allocation, rideshare_market.cli\n"
        "print('rideshare_market.lp' in sys.modules)\n"
        "try:\n"
        "    rideshare_market.LPProblem\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n"
    )
    src = str(Path(rideshare_market.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out.split() == ["False", "AttributeError"]


def test_shortest_paths_run_over_integers(canonical, tmp_path, monkeypatch, capsys):
    """Every production call of either shortest-path kernel gets ``int``
    edge weights, scaled once by the caller: Bellman-Ford returns ``int``
    distances, and every key the matching's Dijkstra runs and the seat
    prices' run put on their heap is an ``int``.  No relaxation does
    ``Fraction`` arithmetic, even when the market's money has denominators.
    Each solve makes one matching call, and only a synthesis runs
    Bellman-Ford."""
    kernel = allocation.bellman_ford
    matching = solver.shortest_augmenting_paths
    calls = []
    runs = []

    def integer_keys(fn):
        def checked(heap, *item):
            bad = [key for key, _ in item or heap if type(key) is not int]
            if bad:
                raise AssertionError(f"heap key {bad[0]!r} is a {type(bad[0]).__name__}")
            return fn(heap, *item)

        return checked

    def integer_matching(adj, cap):
        bad = [w for row in adj for w in row.values() if type(w) is not int]
        if bad:
            raise AssertionError(f"pair weight {bad[0]!r} is a {type(bad[0]).__name__}")
        calls.append(sum(len(row) for row in adj))
        return matching(adj, cap)

    def integer_only(nodes, edges, source):
        bad = [w for _, _, w in edges if type(w) is not int]
        if bad:
            raise AssertionError(f"edge weight {bad[0]!r} is a {type(bad[0]).__name__}")
        result = kernel(nodes, edges, source)
        assert all(type(d) is int for d in result[0].values())
        runs.append(len(edges))
        return result

    monkeypatch.setattr(allocation, "bellman_ford", integer_only)
    monkeypatch.setattr(solver, "shortest_augmenting_paths", integer_matching)
    monkeypatch.setattr(solver, "heapify", integer_keys(solver.heapify))
    monkeypatch.setattr(solver, "heappush", integer_keys(solver.heappush))
    payments = PaymentSchedule({("T1", "V1"): F(7, 3), ("T2", "V1"): F(5, 2)})
    for fixed in (None, payments):
        assert solve_optimal_assignment(canonical, payments=fixed).dual_certificate is not None
    results = [
        synthesize_stable_payments(canonical, Assignment(mapping), favor=favor)
        for mapping in ({"T1": "V1", "T2": "V1"}, {"T1": None, "T2": "V1"})
        for favor in ("travelers", "vehicles")
    ]
    assert [res.feasible for res in results] == [True, True, False, False]
    inst = generate_instance(3, n=5, m=2)
    den, weights = solver._pair_weights(inst)
    assert any(F(w, den).denominator > 1 for w in weights.values())
    solve_optimal_assignment(inst)
    for path, text in (
        (tmp_path / "canonical.json", serialize_document(canonical, payments)),
        (tmp_path / "generated.json", serialize_document(inst)),
    ):
        path.write_text(text)
        for command in ("solve", "check", "synthesize", "report"):
            assert main([command, str(path)]) in (0, 1)
    capsys.readouterr()
    # a matching per solve: three here and one per command; a Bellman-Ford
    # run per synthesis: four here, and one each in synthesize and report
    assert (len(calls), len(runs)) == (3 + 8, 4 + 4)


def test_synthesis_runs_bellman_ford_once_over_the_matched_payments(monkeypatch):
    """Either ``favor`` mode decides feasibility and finds the matched
    payments with one Bellman-Ford run over at most the matched payments,
    the zero node and one seat price per full vehicle, feasible or not."""
    kernel = allocation.bellman_ford
    runs = []

    def counted(nodes, edges, source):
        runs.append(len(nodes))
        return kernel(nodes, edges, source)

    monkeypatch.setattr(allocation, "bellman_ford", counted)
    verdicts = set()
    for seed in range(12):
        inst = generate_instance(8300 + seed, n=4 + seed, m=2, degenerate=seed % 2 == 1)
        a = solve_optimal_assignment(inst, with_certificate=False).assignment
        for favor in ("travelers", "vehicles"):
            runs.clear()
            verdicts.add(synthesize_stable_payments(inst, a, favor=favor).feasible)
            full = [v for v in inst.vehicles if len(a.riders.get(v.id, ())) >= v.capacity]
            bound = len(a.assigned_pairs()) + 1 + len(full)
            assert len(runs) == 1 and runs[0] <= bound, (seed, favor, runs)
    assert verdicts == {True, False}


def test_synthesis_keeps_its_inputs_and_builds_its_views_on_first_read(monkeypatch):
    """A synthesis result holds its verdict, schedule, proof, instance and
    assignment, not the rows it solved.  In either ``favor`` mode the
    synthesis builds the stability system once and no profits; the first
    read of ``allocation`` computes them once, a second read nothing, and an
    infeasible result's profits are ``None`` without a call.  The first read
    of ``rows`` builds the system once more, from the kept instance and
    assignment, and a second read builds nothing."""
    names = [f.name for f in dataclasses.fields(allocation.SynthesisResult)]
    assert names == ["feasible", "schedule", "proof", "instance", "assignment"]
    calls = Counter()

    def counted(name):
        original = getattr(allocation, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(allocation, name, wrapper)
        return original

    profits = counted("compute_profits")
    counted("_stability_system")
    verdicts = Counter()
    for seed in range(12):
        inst = generate_instance(8600 + seed, n=4 + seed, m=2, degenerate=seed % 2 == 1)
        a = solve_optimal_assignment(inst, with_certificate=False).assignment
        for favor in ("travelers", "vehicles"):
            calls.clear()
            res = synthesize_stable_payments(inst, a, favor=favor)
            assert res.instance is inst and res.assignment is a
            assert calls == Counter({"_stability_system": 1}), (seed, favor)
            verdicts[res.feasible] += 1
            calls.clear()
            if res.feasible:
                assert res.allocation == profits(inst, a, res.schedule)
                assert calls == Counter({"compute_profits": 1}), (seed, favor)
            else:
                assert res.allocation is None and not calls
            calls.clear()
            assert res.allocation is res.allocation and not calls
            rows = res.rows
            assert calls == Counter({"_stability_system": 1}), (seed, favor)
            calls.clear()
            assert res.rows is rows and res.row_labels is res.row_labels
            assert not calls, (seed, favor)
    assert verdicts[True] >= 4 and verdicts[False] >= 4, verdicts


def test_synthesis_result_retains_its_answer_not_its_rows():
    """A travelers-mode synthesis at the optimum of ``generate_instance(5,
    300, 60)`` is infeasible, and its result retains under 0.5 MB: its
    proof, not the stability system it solved.  A result that kept the
    system's rows retained 1.9 MB here, and 37 MB at n=1000."""
    inst = generate_instance(5, 300, 60)
    a = solve_optimal_assignment(inst, with_certificate=False).assignment
    # a first synthesis builds whatever the instance and assignment cache
    synthesize_stable_payments(inst, a)
    gc.collect()
    tracemalloc.start()
    try:
        res = synthesize_stable_payments(inst, a)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not res.feasible and res.proof
    assert kept < 500_000, kept


def test_payment_layer_does_not_import_the_matching():
    """``allocation.py`` imports nothing from ``rideshare_market.solver``:
    the synthesis's Bellman-Ford kernel lives beside the system it solves,
    and ``solver`` holds the matching alone, with no ``bellman_ford``."""
    path = Path(allocation.__file__)
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert "rideshare_market.market" in imported
    assert not {name for name in imported if name.startswith("rideshare_market.solver")}
    assert not hasattr(solver, "bellman_ford")
    assert oracles.bellman_ford is allocation.bellman_ford


def test_stability_rows_and_classic_check_look_up_each_traveler_once(monkeypatch):
    """The stability builder and the classic-core checker walk the pair
    table once, each traveler's pairs together: each looks up the vehicle
    of each traveler with a compatible pair once, not once per pair."""
    lookups = Counter()
    vehicle_of = Assignment.vehicle_of

    def counted(self, tid):
        lookups[tid] += 1
        return vehicle_of(self, tid)

    monkeypatch.setattr(Assignment, "vehicle_of", counted)
    for seed in range(6):
        inst = generate_instance(8400 + seed, n=8 + seed, m=3, degenerate=seed % 2 == 1)
        a = solve_optimal_assignment(inst, with_certificate=False).assignment
        options = Counter(tid for tid, _ in inst.compatibility.entries)
        assert max(options.values()) > 1
        # matched pairs at their cost share: a feasible allocation, checked
        matched, den = set(a.assigned_pairs()), inst.compatibility.den
        pays = PaymentSchedule(
            {
                p: F(share, den) if p in matched else F(0)
                for p, (_, share, _) in inst.compatibility.entries.items()
            }
        )
        assert allocation.check_payments(inst, a, pays, classic_core=True)[1] is not None
        for build in (
            lambda: allocation._stability_system(inst, a),
            lambda: allocation.check_payments(inst, a, pays, classic_core=True),
        ):
            lookups.clear()
            build()
            assert lookups == Counter(dict.fromkeys(options, 1)), seed


def test_ladder_row_records_every_figure():
    """``bench/ladder.py`` reaches into the matching's three steps, the
    one-stage oracle, the dual certificate and the synthesis's Bellman-Ford
    run: a small row still carries every figure, the priced document parses
    in pair-table order, the CLI check exits with the literal verdict, the
    CLI ``solve``, ``synthesize`` and ``report`` exit as their verdicts say,
    and the wrapped kernel is put back.  An older row without ``matching_s`` reads
    as its one-stage matching in the delta."""
    path = Path(__file__).resolve().parent.parent / "bench" / "ladder.py"
    spec = importlib.util.spec_from_file_location("ladder", path)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    kernel = allocation.bellman_ford
    row = ladder.ladder_row(20)
    synthesis = [
        f"synthesis_{favor}_{figure}"
        for favor in ("travelers", "vehicles")
        for figure in ("s", "view_s", "rows", "feasible", "edges", "relaxations")
    ]
    assert list(row) == [
        "n", "m", "pairs", "serialize_s", "parse_s", "pair_table_s", "matching_s", "stage1_s",
        "augmentations", "relaxations", "shortcuts", "seat_prices_s", "greedy_s", "searches",
        "moves", "charnes_s", "certificate_s", *synthesis, "priced_serialize_s",
        "priced_parse_s", "priced_in_table_order",
        "check_literal_s", "check_literal_verdict", "check_classic_s", "check_classic_verdict",
        "welfare_paper_s", "cli_check_s", "cli_check_override_s", "cli_check_status",
        "cli_solve_s", "cli_solve_status", "cli_synthesize_s", "cli_synthesize_status",
        "cli_report_s", "cli_report_status",
        "prime_parse_s", "prime_pair_table_s", "prime_check_literal_s",
        "prime_check_literal_verdict", "prime_den_bits", "prime_traveler_den_bits",
    ]  # fmt: skip
    for favor in ("travelers", "vehicles"):
        assert row[f"synthesis_{favor}_edges"] > 0 and row[f"synthesis_{favor}_relaxations"] > 0
    assert row["cli_check_status"] == (0 if row["check_literal_verdict"] else 1)
    assert (row["cli_solve_status"], row["cli_report_status"]) == (0, 0)
    assert row["cli_synthesize_status"] == (0 if row["synthesis_travelers_feasible"] else 1)
    assert row["priced_in_table_order"] is True
    delta = ladder.delta({"ladder": [row]}, [row])
    assert delta["n=20"]["synthesis_travelers_rows"] == [row["synthesis_travelers_rows"]] * 2
    assert row["matching_s"] == round(row["stage1_s"] + row["seat_prices_s"] + row["greedy_s"], 4)
    assert row["augmentations"] >= row["shortcuts"] > 0 and row["searches"] >= 0
    older = {"n": 20, "perturbed_s": 0.5, "kernel_s": 2.0}
    assert ladder.delta({"ladder": [older]}, [row])["n=20"]["matching_s"] == [2.5, row["matching_s"]]
    assert "matching_s" not in older
    root = path.parent.parent
    assert ladder.previous(root / "BENCH_26.json") == root / "BENCH_25.json"
    assert ladder.previous(root / "BENCH_20.json") == root / "BENCH_19.json"
    assert ladder.previous(root / "BENCH_19.json") is None
    assert ladder.previous(root / "ladder.json") is None
    assert allocation.bellman_ford is kernel is oracles.bellman_ford


def test_ladder_counts_the_source_lines(tmp_path, monkeypatch):
    """``bench/ladder.py`` records the package's non-blank, non-comment
    lines as the shell counts them, beside the tier-1 run, and carries the
    count into its delta, ``None`` before when the older file has none.  It
    samples the pace after each row and around the tier-1 run, whose wall
    time it also records at the reference pace."""
    path = Path(__file__).resolve().parent.parent / "bench" / "ladder.py"
    spec = importlib.util.spec_from_file_location("ladder", path)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    shell = "cat src/rideshare_market/*.py | grep -v '^\\s*$' | grep -v '^\\s*#' | wc -l"
    counted = subprocess.run(["sh", "-c", shell], cwd=path.parent.parent, capture_output=True, text=True)
    assert ladder.src_lines() == int(counted.stdout) > 0
    # one small size and no tier-1 run: the record's shape is what matters
    monkeypatch.setattr(ladder, "SIZES", (20,))
    monkeypatch.setattr(ladder, "tier1", lambda: {"wall_s": 1.0})
    (tmp_path / "BENCH_1.json").write_text(json.dumps({"ladder": [], "tier1": {"wall_s": 2.0}}))
    assert ladder.main(["-o", str(tmp_path / "BENCH_2.json")]) == 0
    record = json.loads((tmp_path / "BENCH_2.json").read_text())
    assert record["src_lines"] == ladder.src_lines()
    assert record["delta"]["src_lines"] == [None, record["src_lines"]]
    assert record["delta"]["tier1"] == {"wall_s": [2.0, 1.0]}
    # a pace sample per row, and the tier-1 wall time at the reference pace
    tier1 = record["tier1"]
    assert record["ladder"][0]["pace_s"] > 0 and tier1["pace_s"] > 0
    assert tier1["wall_ref_s"] == round(1.0 * ladder.pace.REF_S / tier1["pace_s"], 2)
    assert ladder.main(["-o", str(tmp_path / "BENCH_3.json")]) == 0
    record = json.loads((tmp_path / "BENCH_3.json").read_text())
    assert record["delta"]["src_lines"] == [record["src_lines"]] * 2


def test_mutants_still_apply():
    """Every mutant of ``bench/mutants.py`` still patches the package: its
    ``old`` text occurs exactly once in its module and differs from its
    ``new`` one, each name is used once, and each named test file exists."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("mutants", root / "bench" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) >= 16 and len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        text = (root / "src" / "rideshare_market" / m.file).read_text(encoding="utf-8")
        assert text.count(m.old) == 1 and m.new != m.old, m.name
        assert m.why and m.tests, m.name
        for test in m.tests:
            assert test.startswith("tests/") and (root / test.split("::")[0]).is_file(), test


def test_certificate_runs_no_bellman_ford(monkeypatch):
    """Each certified solve, under either objective, prices the seats with
    one Dijkstra run over the vehicles and no Bellman-Ford run; its ``y``
    and ``z`` are those of the Bellman-Ford oracle.  A solve without the
    certificate takes the same path."""
    kernel = allocation.bellman_ford
    dijkstra = solver.seat_prices
    runs = []
    priced = []

    def counted(nodes, edges, source):
        runs.append(list(nodes))
        return kernel(nodes, edges, source)

    def prices(*args):
        priced.append(len(args[1]))
        return dijkstra(*args)

    monkeypatch.setattr(allocation, "bellman_ford", counted)
    monkeypatch.setattr(solver, "seat_prices", prices)
    for seed in range(12):
        n, m = 3 + 2 * seed, 1 + seed % 4
        inst = generate_instance(8400 + seed, n=n, m=m, degenerate=seed % 3 == 0)
        capacity = {v.id: v.capacity for v in inst.vehicles}
        pays = {p: F(seed % 5, 2) for p in inst.compatible_pairs()}
        for fixed in (None, PaymentSchedule(pays)):
            runs.clear()
            priced.clear()
            res = solve_optimal_assignment(inst, payments=fixed)
            assert runs == [] and priced == [m], (seed, runs, priced)
            den, scaled = solver._pair_weights(inst, fixed)
            dual = oracles.bellman_ford_dual(scaled, res.assignment, capacity)
            assert res.dual_certificate == solver.DualCertificate(
                y={tid: F(value, den) for tid, value in dual.y.items()},
                z={vid: F(price, den) for vid, price in dual.z.items()},
            ), seed
    priced.clear()
    solve_optimal_assignment(inst, with_certificate=False)
    assert runs == [] and priced == [m]


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_check_does_each_piece_of_work_once(tmp_path, monkeypatch, capsys):
    """``check --assignment`` on a fully priced document walks each route
    once, when the instance validates it, and the pair table reads that
    walk; it validates the schedule and the assignment once each, decides
    feasibility without building the profit matrices, and builds no
    schedule from a dict of money.  Money is put over a common denominator
    once, the served vehicles' shares: never one payment, or one
    traveler's money, at a time.  The parser reads each traveler's money
    at a fixed scale of that traveler's own and each payment straight into
    the pair table's scale, from each money string's integer ratio, so a
    ``Fraction`` is split into its integer ratio only for the served
    vehicles' operating costs, once per served vehicle."""
    inst = generate_instance(5, n=12, m=4)
    a = solve_optimal_assignment(inst).assignment
    synth = synthesize_stable_payments(inst, a)
    assert synth.feasible and set(synth.schedule.entries) == set(inst.compatible_pairs())
    text = serialize_document(inst, synth.schedule)
    path = tmp_path / "priced.json"
    path.write_text(text)
    payments = [x for row in json.loads(text)["payments"].values() for x in row.values()]
    spec = ",".join(f"{tid}={vid}" for tid, vid in a.assigned_pairs())
    calls, scaled = Counter(), []
    for module, name in (
        (market, "route_vertex_sequence"),
        (network, "route_vertex_sequence"),
        (allocation, "compute_profits"),
        (allocation, "check_feasibility"),
        (allocation, "validate_assignment"),
        (allocation, "validate_schedule"),
        (allocation.PaymentSchedule, "__post_init__"),
    ):
        monkeypatch.setattr(module, name, _counted(calls, name, getattr(module, name)))

    def scale(ratios, den=1, original=market.scale_ratios):
        ratios = list(ratios)
        scaled.append(len(ratios))
        return original(ratios, den)

    # the one scaling function; scale_to_integers, which the CLI calls, calls it too
    monkeypatch.setattr(market, "scale_ratios", scale)
    monkeypatch.setattr(F, "as_integer_ratio", _counted(calls, "ratio", F.as_integer_ratio))
    assert main(["check", str(path), "--assignment", spec, "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["stability"]["verdict"] is True
    assert calls["route_vertex_sequence"] <= len(inst.vehicles)
    assert calls["compute_profits"] == calls["check_feasibility"] == 0
    assert calls["validate_assignment"] == calls["validate_schedule"] == 1
    assert calls["__post_init__"] == 0
    # a share per served vehicle; the payments are read in the table's scale
    served = len({vid for _, vid in inst.compatible_pairs()})
    assert scaled == [served]
    assert len(set(payments)) < len(payments)
    assert calls["ratio"] == served


def test_payments_are_read_as_ints_until_printed(tmp_path, monkeypatch, capsys):
    """``solve --payments``, ``solve --objective paper``, ``check`` with and
    without payments and overrides, and ``report`` build no schedule from a
    dict of money on a run that exits 0 or 1, and build a schedule's
    ``Fraction`` view only to print its payments: never on ``solve`` or
    ``check``, and on ``report`` once for a feasible synthesis."""
    inst = generate_instance(5, n=12, m=4)
    a = solve_optimal_assignment(inst, with_certificate=False).assignment
    synth = synthesize_stable_payments(inst, a)
    assert synth.feasible
    text = serialize_document(inst, synth.schedule)
    (tid, vid), *_ = a.assigned_pairs()
    raw = json.loads(text)
    raw["payments"] = {t: row for t, row in raw["payments"].items() if t != tid}
    infeasible = generate_instance(678, 3, 3)
    docs = {}
    for name, body in (
        ("priced", text),
        ("partial", json.dumps(raw)),
        ("plain", serialize_document(inst)),
        ("infeasible", serialize_document(infeasible)),
    ):
        docs[name] = tmp_path / f"{name}.json"
        docs[name].write_text(body)
    override = f"{tid}:{vid}=7/3"
    riders = ",".join(f"{t}={v}" for t, v in a.assigned_pairs())
    runs = [
        (["solve", "priced"], 0),
        (["solve", "plain", "--payments", override], 0),
        (["solve", "priced", "--payments", f"{tid}=1/2"], 0),
        (["solve", "plain", "--objective", "paper"], 0),
        (["solve", "partial", "--objective", "paper", "--payments", override], 0),
        (["check", "plain"], 0),
        (["check", "priced"], 0),
        (["check", "priced", "--assignment", riders, "--classic-core"], 0),
        (["check", "priced", "--payments", override], 0),
        (["check", "partial"], 0),
        (["check", "partial", "--payments", f"{tid}=1000"], 0),
        (["report", "priced"], 1),
        (["report", "partial", "--payments", override], 1),
        (["report", "infeasible"], 0),
    ]
    calls = Counter()
    monkeypatch.setattr(
        allocation.PaymentSchedule,
        "__post_init__",
        _counted(calls, "__post_init__", allocation.PaymentSchedule.__post_init__),
    )
    view = functools.cached_property(
        _counted(calls, "entries", vars(allocation.PaymentSchedule)["entries"].func)
    )
    view.__set_name__(allocation.PaymentSchedule, "entries")
    # the field's view raises AttributeError when read on the class
    monkeypatch.setattr(allocation.PaymentSchedule, "entries", view, raising=False)
    for argv, views in runs:
        calls.clear()
        argv = [argv[0], str(docs[argv[1]]), *argv[2:]]
        assert main(argv) in (0, 1), argv
        assert calls == Counter(entries=views), argv
    # a negative override is named by a dict-form schedule, with exit 2
    calls.clear()
    assert main(["check", str(docs["priced"]), "--payments", f"{tid}=-1"]) == 2
    assert calls["__post_init__"] == 1
    capsys.readouterr()


def test_commands_read_the_pair_table_by_its_columns(tmp_path, monkeypatch, capsys):
    """``check`` in both modes, with and without payments, an assignment
    and overrides, ``solve`` under either objective, ``synthesize`` with a
    feasible and an infeasible verdict, and ``report`` never build the pair
    table's ``entries`` view: they read its columns by position."""
    inst = generate_instance(5, n=12, m=4)
    a = solve_optimal_assignment(inst, with_certificate=False).assignment
    synth = synthesize_stable_payments(inst, a)
    assert synth.feasible
    (tid, vid), *_ = a.assigned_pairs()
    riders = ",".join(f"{t}={v}" for t, v in a.assigned_pairs())
    docs = {}
    for name, body in (
        ("priced", serialize_document(inst, synth.schedule)),
        ("plain", serialize_document(inst)),
        ("infeasible", serialize_document(generate_instance(678, 3, 3))),
    ):
        docs[name] = tmp_path / f"{name}.json"
        docs[name].write_text(body)
    calls = Counter()
    view = functools.cached_property(_counted(calls, "entries", market.CompatibilityMatrix.entries.func))
    view.__set_name__(market.CompatibilityMatrix, "entries")
    monkeypatch.setattr(market.CompatibilityMatrix, "entries", view)
    statuses = Counter()
    for argv in (
        ["check", "plain"],
        ["check", "plain", "--classic-core"],
        ["check", "priced", "--assignment", riders],
        ["check", "priced", "--assignment", riders, "--classic-core"],
        ["check", "priced", "--payments", f"{tid}:{vid}=7/3"],
        ["check", "plain", "--payments", f"{tid}=1000"],
        ["solve", "priced"],
        ["solve", "plain", "--objective", "paper", "--payments", f"{tid}=1/2"],
        ["synthesize", "plain"],
        ["synthesize", "infeasible"],
        ["report", "priced"],
        ["report", "infeasible", "--classic-core"],
    ):
        status = main([argv[0], str(docs[argv[1]]), *argv[2:]])
        statuses[status] += 1
        assert status in (0, 1) and calls["entries"] == 0, argv
    capsys.readouterr()
    assert statuses[0] and statuses[1]
    # the view itself is the columns, keyed by pair
    matrix = inst.compatibility
    assert matrix.entries == dict(zip(matrix.pairs, zip(matrix.value, matrix.share, matrix.surplus)))
    assert calls["entries"] == 1


def _money_strings(doc):
    """Every money string of a parsed JSON document, in document order."""
    for t in doc["travelers"]:
        yield t["v_max"]
        yield t["v_min"]
        yield from t["inconvenience"].values()
    for v in doc["vehicles"]:
        yield v["operating_cost"]
        yield from (v.get("cost_shares") or {}).values()
    for row in (doc.get("payments") or {}).values():
        yield from row.values()


def test_check_converts_each_money_string_once(tmp_path, monkeypatch, capsys):
    """``check`` on a fully priced document converts each distinct money
    string at most once, however often the document repeats it."""
    inst = generate_instance(5, n=12, m=4)
    synth = synthesize_stable_payments(inst, solve_optimal_assignment(inst).assignment)
    text = serialize_document(inst, synth.schedule)
    written = list(_money_strings(json.loads(text)))
    assert len(set(written)) < len(written)
    path = tmp_path / "priced.json"
    path.write_text(text)
    calls = Counter()
    counted = _counted(calls, "exact_ratio", instance_io.exact_ratio)
    monkeypatch.setattr(instance_io, "exact_ratio", counted)
    assert main(["check", str(path)]) == 0
    capsys.readouterr()
    assert 0 < calls["exact_ratio"] <= len(set(written))


def test_a_priced_document_reaches_its_table_with_a_fraction_per_vehicle(monkeypatch):
    """Parsing a fully priced document and building its pair table read
    money as integer ratios: no ``Fraction`` is made per traveler, payment
    or pair, and at most one per vehicle, its ``operating_cost``."""
    inst = generate_instance(5, n=12, m=4)
    synth = synthesize_stable_payments(inst, solve_optimal_assignment(inst).assignment)
    text = serialize_document(inst, synth.schedule)
    made = []
    build = F.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    doc = parse_document(text)
    matrix = doc.instance.compatibility
    monkeypatch.undo()
    assert len(made) <= len(inst.vehicles), made
    assert matrix.den == inst.compatibility.den and matrix.entries == inst.compatibility.entries
    assert doc.payments.entries == synth.schedule.entries


def test_only_a_count_mismatch_decodes_with_the_pairs_hook(tmp_path, monkeypatch, capsys):
    """``check`` on a generated priced document decodes it once, without
    the hook that names repeated keys: the objects' sizes sum to the
    count of ``:``.  A ``:`` inside an id, or a repeated key, breaks the
    count and costs one more decode, with the hook."""
    inst = generate_instance(5, n=12, m=4)
    synth = synthesize_stable_payments(inst, solve_optimal_assignment(inst).assignment)
    text = serialize_document(inst, synth.schedule)
    path = tmp_path / "priced.json"
    path.write_text(text)
    calls = Counter()
    hook = _counted(calls, "hook", instance_io._objects_noting_repeats)
    monkeypatch.setattr(instance_io, "_objects_noting_repeats", hook)
    assert main(["check", str(path)]) in (0, 1)
    capsys.readouterr()
    assert calls["hook"] == 0
    # every vehicle id gains a ":", in the instance and in the schedule
    name = {v.id: v.id.replace("V", "V:") for v in inst.vehicles}
    travelers = [
        dataclasses.replace(t, inconvenience={name[v]: x for v, x in t.inconvenience.items()})
        for t in inst.travelers
    ]
    vehicles = [dataclasses.replace(v, id=name[v.id]) for v in inst.vehicles]
    colon = InstanceDocument(
        MarketInstance(inst.network, travelers, vehicles),
        PaymentSchedule({(t, name[v]): x for (t, v), x in synth.schedule.entries.items()}),
    )
    assert serialize_document(colon.instance, colon.payments) == text.replace('"V', '"V:')
    assert parse_document(text.replace('"V', '"V:')) == colon
    assert calls["hook"] == 1
    repeated = text.replace('"capacity"', '"capacity": 1, "capacity"', 1)
    with pytest.raises(ValidationError, match="duplicate key 'capacity'"):
        parse_document(repeated)
    assert calls["hook"] == 2


def test_service_is_decided_once_per_trip_and_vehicle(monkeypatch):
    """The generator asks ``serves`` once per distinct trip and vehicle,
    and the pair table at most once per trip and vehicle that a traveler
    names: never once per candidate pair, and never more often than there
    are entries, even when no two travelers share a trip."""
    calls = Counter()
    for module in (market, generate):
        monkeypatch.setattr(module, "serves", _counted(calls, module.__name__, network.serves))
    inst = generate_instance(5, n=300, m=60)
    pairs = len(inst.compatibility.entries)
    bound = len({(t.od.origin, t.od.destination) for t in inst.travelers}) * 60
    for module in (generate, market):
        assert 0 < calls[module.__name__] <= bound, module.__name__
        assert 5 * calls[module.__name__] < pairs, module.__name__
    # one trip per traveler on a line that every route covers, one entry each
    stops = [f"S{i}" for i in range(12)]
    edges = tuple(network.Edge(f"E{i}", a, b) for i, (a, b) in enumerate(zip(stops, stops[1:])))
    line = network.Network(frozenset(stops), edges)
    full = network.Route(tuple(e.id for e in edges))
    fleet = tuple(market.Vehicle(f"V{j}", full, 1, F(1)) for j in range(40))
    trips = [(a, b) for i, a in enumerate(stops) for b in stops[i + 1 :]]
    travelers = tuple(
        market.Traveler(f"T{i}", network.ODPair(a, b), F(5), F(0), {f"V{i % 40}": F(1)})
        for i, (a, b) in enumerate(trips)
    )
    calls.clear()
    sparse = MarketInstance(line, travelers, fleet)
    assert len(sparse.compatibility.entries) == len(trips) == calls[market.__name__]


def test_each_command_solves_the_matching_once(tmp_path, monkeypatch, capsys):
    """Each command solves the matching once; only a bare ``TID=value``
    payment under ``solve --objective paper`` needs the surplus optimum
    before the solve it reports.  Under the surplus objective the reported
    optimum prices it.  The generator walks each route once, and so does
    the instance it builds."""
    inst = generate_instance(5, n=12, m=4)
    calls = Counter()
    for module in (market, generate):
        walk = _counted(calls, module.__name__, network.route_vertex_sequence)
        monkeypatch.setattr(module, "route_vertex_sequence", walk)
    assert generate_instance(5, n=12, m=4) == inst
    assert calls == {generate.__name__: 4, market.__name__: 4}
    a = solve_optimal_assignment(inst).assignment
    synth = synthesize_stable_payments(inst, a)
    priced = tmp_path / "priced.json"
    priced.write_text(serialize_document(inst, synth.schedule))
    plain = tmp_path / "plain.json"
    plain.write_text(serialize_document(inst))
    tid = a.assigned_pairs()[0][0]
    solve = _counted(calls, "solve", solve_optimal_assignment)
    monkeypatch.setattr(cli, "solve_optimal_assignment", solve)
    for argv, solves in (
        (["solve", priced], 1),
        (["solve", plain, "--objective", "paper"], 1),
        (["solve", priced, "--objective", "paper"], 1),
        (["check", plain], 1),
        (["synthesize", plain], 1),
        (["report", priced], 1),
        (["solve", plain, "--payments", f"{tid}=3"], 1),
        (["solve", plain, "--objective", "paper", "--payments", f"{tid}=3"], 2),
    ):
        calls.clear()
        assert main([str(arg) for arg in argv]) in (0, 1)
        assert calls["solve"] == solves, argv
    capsys.readouterr()
