"""The benchmark's output checks accept the program's real outputs and
reject mutated ones, so no check accepts everything.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest

import checks
import tracing
import workloads
from rideshare_market import allocation, cli, generate, instance_io, solver


def _solved(text, with_certificate=False):
    inst = instance_io.parse_document(text).instance
    return inst, solver.solve_optimal_assignment(inst, with_certificate=with_certificate)


def _two_leg_document():
    """V1 rides A->B and V2 rides B->C; T1 travels A->B and T2 B->C."""
    return json.dumps({
        "schema_version": 1,
        "network": {"vertices": ["A", "B", "C"], "edges": [["e1", "A", "B"], ["e2", "B", "C"]]},
        "travelers": [
            {"id": "T1", "origin": "A", "destination": "B", "v_max": "10", "v_min": "0",
             "inconvenience": {"V1": "1", "V2": "1"}},
            {"id": "T2", "origin": "B", "destination": "C", "v_max": "8", "v_min": "0",
             "inconvenience": {"V1": "1", "V2": "1"}},
        ],
        "vehicles": [
            {"id": "V1", "route": ["e1"], "capacity": 1, "operating_cost": "2"},
            {"id": "V2", "route": ["e2"], "capacity": 1, "operating_cost": "2"},
        ],
        "options": {"cost_share_mode": "per_seat"},
    })


def _document(spec):
    return instance_io.serialize_document(workloads._generate(spec))


# -- matching -------------------------------------------------------------


def test_route_walk_matches_the_program_on_generated_documents():
    for seed in range(5):
        text = _document(workloads.Spec(seed, 30, 6))
        inst = instance_io.parse_document(text).instance
        assert list(checks.read_market(text).compatible) == inst.compatible_pairs()


def test_matching_checks_accept_the_solver_and_reject_a_swapped_pair():
    text = _two_leg_document()
    _, result = _solved(text)
    mk = checks.read_market(text)
    mapping = dict(result.assignment.mapping)
    assert mapping == {"T1": "V1", "T2": "V2"}
    assert checks.check_assignment(mk, mapping, result.objective) == result.objective
    checks.check_no_negative_cycle(mk, mapping)

    swapped = {"T1": "V2", "T2": "V1"}
    with pytest.raises(checks.CheckFailed, match="not compatible"):
        checks.check_assignment(mk, swapped, result.objective)


def test_negative_cycle_check_rejects_a_suboptimal_assignment():
    for seed in range(3):
        text = _document(workloads.Spec(seed, 40, 8))
        _, result = _solved(text)
        mk = checks.read_market(text)
        mapping = dict(result.assignment.mapping)
        checks.check_no_negative_cycle(mk, mapping)
        dropped = next(t for t, v in mapping.items() if v is not None)
        mapping[dropped] = None
        with pytest.raises(checks.CheckFailed, match="negative-cost cycle"):
            checks.check_no_negative_cycle(mk, mapping)


def test_objective_check_rejects_a_wrong_objective():
    text = _two_leg_document()
    _, result = _solved(text)
    mapping = dict(result.assignment.mapping)
    with pytest.raises(checks.CheckFailed, match="objective"):
        checks.check_assignment(checks.read_market(text), mapping, result.objective + 1)


# -- certificate and synthesis -------------------------------------------


def _synthesized(feasible):
    """A small instance whose synthesis verdict is ``feasible``."""
    wl = workloads.CertifySynthesize()
    spec = wl._find(7, 0, True, feasible, 4, 8, 24 if feasible else 18)
    text = _document(spec)
    inst, solved = _solved(text, with_certificate=True)
    synth = allocation.synthesize_stable_payments(inst, solved.assignment)
    assert synth.feasible is feasible
    return checks.read_market(text), dict(solved.assignment.mapping), solved, synth


def test_certificate_check_rejects_a_lowered_traveler_price():
    mk, _, solved, _ = _synthesized(True)
    cert = solved.dual_certificate
    checks.check_certificate(mk, cert.y, cert.z, solved.objective)
    tid = next(t for t, y in cert.y.items() if y > 0)
    lowered = {**cert.y, tid: cert.y[tid] - F(1, 2)}
    with pytest.raises(checks.CheckFailed):
        checks.check_certificate(mk, lowered, cert.z, solved.objective)


def test_schedule_check_rejects_a_payment_past_v_minus_v_min():
    mk, mapping, _, synth = _synthesized(True)
    schedule = synth.schedule.entries
    checks.check_stable_schedule(mk, mapping, schedule)
    pair = next((t, v) for t, v in mapping.items() if v is not None)
    raised = {**schedule, pair: mk.value[pair] - mk.v_min[pair[0]] + F(1, 2)}
    with pytest.raises(checks.CheckFailed, match="violates"):
        checks.check_stable_schedule(mk, mapping, raised)


def test_farkas_check_rejects_one_flipped_multiplier():
    mk, mapping, _, synth = _synthesized(False)
    checks.check_farkas(mk, mapping, synth.row_labels, synth.certificate)
    k = next(i for i, mu in enumerate(synth.certificate) if mu != 0)
    flipped = list(synth.certificate)
    flipped[k] = -flipped[k]
    with pytest.raises(checks.CheckFailed):
        checks.check_farkas(mk, mapping, synth.row_labels, flipped)


def test_farkas_check_rejects_an_unknown_label():
    mk, mapping, _, synth = _synthesized(False)
    labels = list(synth.row_labels)
    k = next(i for i, mu in enumerate(synth.certificate) if mu != 0)
    labels[k] = ("no_such_row", labels[k][1])
    with pytest.raises(checks.CheckFailed, match="names no row"):
        checks.check_farkas(mk, mapping, labels, synth.certificate)


def test_own_feasibility_decision_agrees_with_synthesis():
    for seed in range(12):
        text = _document(workloads.Spec(seed, 4, 2, degenerate=seed % 2 == 0))
        inst, solved = _solved(text)
        synth = allocation.synthesize_stable_payments(inst, solved.assignment)
        mapping = dict(solved.assignment.mapping)
        assert checks.system_feasible(checks.read_market(text), mapping) is synth.feasible


# -- check command --------------------------------------------------------


def _check_command(tmp_path, text, mapping):
    path = tmp_path / "doc.json"
    path.write_text(text)
    spec = ",".join(f"{t}={v}" for t, v in mapping.items() if v is not None)
    out = io.StringIO()
    with redirect_stdout(out):
        status = cli.main(["check", str(path), "--assignment", spec, "--format", "machine"])
    return status, out.getvalue()


@pytest.mark.parametrize("perturb", [False, True])
def test_check_output_check_rejects_a_payment_past_v_minus_v_min(tmp_path, perturb):
    inst = generate.generate_instance(3, 60, 12)
    mapping, payments = workloads._check_inputs(workloads._market(inst), perturb, 6)
    text = instance_io.serialize_document(inst, allocation.PaymentSchedule(payments))
    status, out = _check_command(tmp_path, text, mapping)
    expected = checks.evaluate_check(checks.read_market(text), mapping)
    assert expected.feasible and expected.stable is not perturb
    checks.check_cli_output(expected, mapping, status, out)

    mk = checks.read_market(text)
    pair = next((t, v) for t, v in mapping.items() if v is not None)
    payments[pair] = mk.value[pair] - mk.v_min[pair[0]] + 1
    mutated = instance_io.serialize_document(inst, allocation.PaymentSchedule(payments))
    verdict = checks.evaluate_check(checks.read_market(mutated), mapping)
    assert not verdict.feasible
    with pytest.raises(checks.CheckFailed):
        checks.check_cli_output(verdict, mapping, status, out)


# -- tracing --------------------------------------------------------------


def test_self_time_subtracts_other_modules_only():
    tracer = tracing.Tracer()
    spans = [
        ["op", 0.0, 10.0, None, {}],
        ["allocation.synthesize", 1.0, 9.0, 0, {}],
        ["allocation.check", 2.0, 4.0, 1, {}],
        ["lp.solve", 2.5, 3.5, 2, {"lp.calls": 1}],
        ["lp.solve", 5.0, 8.0, 1, {"lp.calls": 1}],
    ]
    tracer.spans = spans
    totals = tracer._totals(0, tracer._children())
    assert totals["allocation.synthesize_s"] == 8.0
    assert totals["allocation.synthesize_self_s"] == 4.0
    assert "allocation.check_s" not in totals  # nested in its own module
    assert totals["lp.solve_s"] == 4.0 and totals["lp.calls"] == 2


# -- corpus and metrics ---------------------------------------------------


def test_a_thinned_market_keeps_exactly_its_share_of_pairs():
    spec, inst = workloads._thinned(1, 0, 60, 12)
    pairs = inst.compatible_pairs()
    assert len(pairs) == round(workloads.DENSITY * 60 * 12) and set(pairs) == spec.keep
    rebuilt = workloads._thin(workloads._generate(spec), spec.keep)
    text = instance_io.serialize_document(rebuilt)
    assert list(checks.read_market(text).compatible) == pairs


def test_the_tail_has_ten_samples_beyond_it():
    import run

    metrics = run.end_to_end([float(x) for x in range(1, 51)], [1.0, 2.0, 3.0])
    assert metrics["latency_tail_s"]["value"] == 40.0
    assert metrics["latency_p50_s"]["value"] == 25.5
    assert metrics["setup_s"]["value"] == 2.0
