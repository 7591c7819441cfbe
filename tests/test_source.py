import ast
from pathlib import Path

import rideshare_market
from rideshare_market import (
    Assignment,
    lp,
    solve_optimal_assignment,
    solver,
    synthesize_stable_payments,
)
from rideshare_market.cli import main
from rideshare_market.instance_io import serialize_instance


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
    for module in (lp, solver):
        monkeypatch.setattr(module, "lp_solve", forbidden)
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
