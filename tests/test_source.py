import ast
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import rideshare_market
from rideshare_market import (
    Assignment,
    PaymentSchedule,
    allocation,
    lp,
    market,
    network,
    solve_optimal_assignment,
    solver,
    synthesize_stable_payments,
)
from rideshare_market.cli import main
from rideshare_market.generate import generate_instance
from rideshare_market.instance_io import serialize_document, serialize_instance


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
    an LP problem or a simplex solve; only ``SynthesisResult.problem``, the
    simplex oracle's view, builds the dense system."""

    def forbidden(*args, **kwargs):
        raise AssertionError("dense LP built on a production path")

    monkeypatch.setattr(lp.Row, "__post_init__", forbidden)
    monkeypatch.setattr(lp.LPProblem, "__post_init__", forbidden)
    monkeypatch.setattr(lp, "lp_solve", forbidden)
    assert solve_optimal_assignment(canonical).dual_certificate is not None
    results = [
        synthesize_stable_payments(canonical, Assignment(mapping), favor=favor)
        for mapping in ({"T1": "V1", "T2": "V1"}, {"T1": None, "T2": "V1"})
        for favor in ("travelers", "vehicles")
    ]
    assert [res.feasible for res in results] == [True, True, False, False]
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(canonical))
    assert main(["check", str(path)]) == 0
    assert main(["report", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    for res in results:
        assert len(res.problem.rows) == len(res.rows)


def test_production_modules_do_not_import_the_simplex():
    """Importing the solver, allocation and the CLI, and so the package,
    leaves the simplex unloaded; the package's ``lp`` names load it on
    first use."""
    code = (
        "import sys\n"
        "import rideshare_market.solver, rideshare_market.allocation, rideshare_market.cli\n"
        "print('rideshare_market.lp' in sys.modules)\n"
        "from rideshare_market import LPProblem, lp\n"
        "print('rideshare_market.lp' in sys.modules, LPProblem is lp.LPProblem)\n"
    )
    src = str(Path(rideshare_market.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out.split() == ["False", "True", "True"]


def test_shortest_paths_run_over_integers(canonical, tmp_path, monkeypatch, capsys):
    """Every production call of either shortest-path kernel gets ``int``
    edge weights, scaled once by the caller: Bellman-Ford returns ``int``
    distances, and every key the matching's Dijkstra puts on its heap is an
    ``int``.  No relaxation does ``Fraction`` arithmetic, even when the
    market's money has denominators."""
    kernel = solver.bellman_ford
    matching = solver.shortest_augmenting_paths
    calls = []

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
        calls.append(len(edges))
        return result

    monkeypatch.setattr(solver, "bellman_ford", integer_only)
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
    assert any(w.denominator > 1 for w in solver._pair_weights(inst).values())
    solve_optimal_assignment(inst)
    for path, text in (
        (tmp_path / "canonical.json", serialize_document(canonical, payments)),
        (tmp_path / "generated.json", serialize_instance(inst)),
    ):
        path.write_text(text)
        for command in ("solve", "check", "synthesize", "report"):
            assert main([command, str(path)]) in (0, 1)
    capsys.readouterr()
    assert len(calls) > 20


def test_check_does_each_piece_of_work_once(tmp_path, monkeypatch, capsys):
    """``check --assignment`` on a fully priced document walks each route at
    most twice, once to validate it and once to build the pair table,
    prices and feasibility-checks the schedule once, and normalises it
    once, when the document is parsed."""
    inst = generate_instance(5, n=12, m=4)
    a = solve_optimal_assignment(inst).assignment
    synth = synthesize_stable_payments(inst, a)
    assert synth.feasible and set(synth.schedule.entries) == set(inst.compatible_pairs())
    path = tmp_path / "priced.json"
    path.write_text(serialize_document(inst, synth.schedule))
    spec = ",".join(f"{tid}={vid}" for tid, vid in a.assigned_pairs())
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in (
        (market, "route_vertex_sequence"),
        (network, "route_vertex_sequence"),
        (allocation, "compute_profits"),
        (allocation, "check_feasibility"),
        (allocation.PaymentSchedule, "__post_init__"),
    ):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert main(["check", str(path), "--assignment", spec, "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["stability"]["verdict"] is True
    assert calls["route_vertex_sequence"] <= 2 * len(inst.vehicles)
    assert calls["compute_profits"] == calls["check_feasibility"] == 1
    assert calls["__post_init__"] == 1
