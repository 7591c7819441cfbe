"""Command line interface.

Commands: solve, oracle, check, synthesize, generate, report.
Exit status: 0 success, 1 failed verdict (instability, infeasibility,
oracle disagreement), 2 validation or usage errors.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

from rideshare_market.allocation import PaymentSchedule, check_payments, synthesize_stable_payments
from rideshare_market.errors import OracleScaleError, ValidationError
from rideshare_market.generate import generate_instance
from rideshare_market.instance_io import exact_number, parse_document, serialize_document
from rideshare_market.market import (
    Assignment,
    UNASSIGNED,
    _ZERO,
    cost_recovery_gap,
    welfare_paper,
    welfare_surplus,
)
from rideshare_market.oracles import oracle_optimum
from rideshare_market.solver import solve_optimal_assignment

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_INVALID = 2


def _entries(spec: str | None, option: str, form: str):
    """Yield each ``key=value`` entry of the comma list ``spec`` as
    ``(key, value)``, in order; an entry without ``=`` is an error."""
    for item in (spec or "").split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise ValidationError(f"{option}: entry {item!r} is not {form}")
        yield key, value


def _parse_payment_overrides(spec: str | None) -> list:
    """Parse ``T1:V1=3,T2=5`` into ``[((tid, vid), value), ((tid, None), value)]``."""
    out = []
    for key, value in _entries(spec, "--payments", "KEY=VALUE"):
        try:
            amount = exact_number(value)
        except ValidationError as exc:
            raise ValidationError(f"--payments: {exc}") from None
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"--payments: not an exact number: {value!r}") from None
        tid, _, vid = key.partition(":")
        out.append(((tid, vid if ":" in key else None), amount))
    return out


def _resolve_payments(inst, assignment, base, overrides) -> PaymentSchedule:
    """Full payment matrix: document payments ``base``, then the parsed
    ``overrides``, then the break-even default max(0, valuation - cost
    share); a complete ``base`` without overrides is returned as is.
    ``TID=value`` prices the traveler's vehicle in ``assignment``, or, when
    that is ``None``, in the surplus optimum, solved only for such an entry."""
    matrix = inst.compatibility
    table = matrix.entries
    if base is not None and not overrides and base.entries.keys() >= table.keys():
        return base
    entries = dict(base.entries) if base is not None else {}
    if overrides:
        travelers = {t.id for t in inst.travelers}
        seen = set()
        for (tid, vid), value in overrides:
            if tid not in travelers:
                raise ValidationError(f"--payments: unknown traveler id {tid!r}")
            if vid is None:
                if assignment is None:
                    assignment = _assignment(inst, None)
                vid = assignment.vehicle_of(tid)
                if vid is UNASSIGNED:
                    raise ValidationError(
                        f"--payments: traveler {tid!r} is unassigned; use TID:VID=value"
                    )
            if (tid, vid) not in table:
                raise ValidationError(f"--payments: pair ({tid!r}, {vid!r}) is not compatible")
            if (tid, vid) in seen:
                raise ValidationError(f"--payments: duplicate entry for pair ({tid!r}, {vid!r})")
            seen.add((tid, vid))
            entries[(tid, vid)] = value
    for pair, (_, _, surplus) in table.items():
        if pair not in entries:
            entries[pair] = Fraction(surplus, matrix.den) if surplus > 0 else _ZERO
    return PaymentSchedule(entries)


def _assignment(inst, spec: str | None) -> Assignment:
    """The ``--assignment`` in ``spec``, even empty, or without one the surplus optimum."""
    if spec is None:
        return solve_optimal_assignment(inst, with_certificate=False).assignment
    mapping = {t.id: UNASSIGNED for t in inst.travelers}
    seen = set()
    for tid, vid in _entries(spec, "--assignment", "TID=VID"):
        if tid in seen:
            raise ValidationError(f"--assignment: duplicate entry for traveler {tid!r}")
        seen.add(tid)
        mapping[tid] = vid
    return Assignment(mapping)


def _assignment_table(a: Assignment):
    return {tid: (vid if vid is not UNASSIGNED else None) for tid, vid in sorted(a.mapping.items())}


def _pair_table(values: dict, a: Assignment | None = None):
    """``{"tid:vid": value}`` in pair order; only ``a``'s matched pairs, if given."""
    return {
        f"{tid}:{vid}": x
        for (tid, vid), x in sorted(values.items())
        if a is None or a.vehicle_of(tid) == vid
    }


def _report_check(report):
    return {
        "verdict": report.verdict,
        "violations": [
            {"kind": v.kind, "pair": list(v.pair), "lhs": v.lhs, "rhs": v.rhs}
            for v in report.violations
        ],
    }


def _emit(doc: dict, fmt: str):
    """Write ``doc`` as JSON or text, each exact number as its string.  The
    document is rendered and encoded in full first: a number too long for
    Python's int-to-string conversion, or text that standard output cannot
    encode, is a validation error, and nothing is written."""
    out = io.StringIO()
    try:
        if fmt == "machine":
            json.dump(doc, out, indent=2, default=str)
            out.write("\n")
        else:
            _emit_text(doc, out)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValidationError(
            f"output: a computed value has more than {limit} digits and cannot be printed"
        ) from None
    text, encoding = out.getvalue(), sys.stdout.encoding or "utf-8"
    try:
        text.encode(encoding, sys.stdout.errors or "strict")
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start : exc.end]
        raise ValidationError(f"output: {bad!r} cannot be encoded as {encoding}") from None
    sys.stdout.write(text)


def _emit_text(doc: dict, out, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            out.write(f"{prefix}{key}:\n")
            _emit_text(value, out, prefix + "  ")
        elif isinstance(value, list):
            out.write(f"{prefix}{key}:\n")
            for item in value:
                if isinstance(item, dict):
                    out.write(f"{prefix}  -\n")
                    _emit_text(item, out, prefix + "    ")
                else:
                    out.write(f"{prefix}  - {item}\n")
        else:
            out.write(f"{prefix}{key}: {value}\n")


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        message = f"document: not UTF-8 text at byte {exc.start}: {exc.reason}"
        raise ValidationError(message) from None
    doc = parse_document(text)
    return doc.instance, doc.payments


def _solve_report(inst, payments, objective):
    fixed = payments if objective == "paper" else None
    result = solve_optimal_assignment(inst, payments=fixed)
    doc = {
        "objective_mode": objective,
        "assignment": _assignment_table(result.assignment),
        "objective": result.objective,
        "welfare_surplus": welfare_surplus(inst, result.assignment),
    }
    if payments is not None:
        doc["welfare_paper"] = welfare_paper(inst, result.assignment, payments)
    doc["cost_recovery_gap"] = {
        v.id: cost_recovery_gap(inst, result.assignment, v.id) for v in inst.vehicles
    }
    if result.dual_certificate is not None:
        doc["dual_certificate"] = {
            "y": dict(sorted(result.dual_certificate.y.items())),
            "z": dict(sorted(result.dual_certificate.z.items())),
        }
    return result, doc


def cmd_solve(args) -> int:
    inst, base_payments = _load(args.instance)
    overrides = _parse_payment_overrides(args.payments)
    payments = None
    if args.objective == "paper" or base_payments is not None or overrides:
        payments = _resolve_payments(inst, None, base_payments, overrides)
    _, doc = _solve_report(inst, payments, args.objective)
    _emit(doc, args.format)
    return EXIT_OK


def cmd_oracle(args) -> int:
    inst, _ = _load(args.instance)
    result = solve_optimal_assignment(inst, with_certificate=False)
    objective, argmax = oracle_optimum(inst)
    agree = objective == result.objective
    doc = {
        "oracle_objective": objective,
        "solver_objective": result.objective,
        "agreement": agree,
        "optimal_assignments": [_assignment_table(a) for a in argmax],
    }
    _emit(doc, args.format)
    return EXIT_OK if agree else EXIT_VERDICT_FALSE


def _check_payments(doc, inst, assignment, payments, classic_core) -> bool:
    """Add the feasibility and stability reports of ``payments`` to ``doc``;
    stability is skipped when the allocation is infeasible.  Returns the
    combined verdict."""
    feas, stab = check_payments(inst, assignment, payments, classic_core)
    doc["feasibility"] = _report_check(feas)
    doc["eq8_holds"] = {f"{tid}:{vid}": ok for (tid, vid), ok in sorted(feas.eq8_status.items())}
    if stab is None:
        doc["stability"] = {"verdict": None, "violations": [], "skipped": "allocation infeasible"}
        return False
    doc["stability"] = _report_check(stab)
    return stab.verdict


def cmd_check(args) -> int:
    inst, base_payments = _load(args.instance)
    assignment = _assignment(inst, args.assignment)
    overrides = _parse_payment_overrides(args.payments)
    payments = _resolve_payments(inst, assignment, base_payments, overrides)
    doc = {"assignment": _assignment_table(assignment)}
    verdict = _check_payments(doc, inst, assignment, payments, args.classic_core)
    if "skipped" not in doc["stability"]:
        doc["stability_mode"] = "classic_core" if args.classic_core else "literal"
    _emit(doc, args.format)
    return EXIT_OK if verdict else EXIT_VERDICT_FALSE


def cmd_synthesize(args) -> int:
    inst, _ = _load(args.instance)
    assignment = _assignment(inst, args.assignment)
    result = synthesize_stable_payments(inst, assignment)
    doc = {"assignment": _assignment_table(assignment), "feasible": result.feasible}
    if result.feasible:
        doc["payments"] = _pair_table(result.schedule.entries)
        doc["traveler_profit"] = _pair_table(result.allocation.pi, assignment)
        doc["vehicle_profit"] = _pair_table(result.allocation.rho, assignment)
    else:
        doc["certificate"] = [
            {"constraint": str(label), "multiplier": str(mu)}
            for label, mu in zip(result.row_labels, result.certificate)
            if mu != 0
        ]
    _emit(doc, args.format)
    return EXIT_OK if result.feasible else EXIT_VERDICT_FALSE


def cmd_generate(args) -> int:
    inst = generate_instance(args.seed, args.n, args.m, degenerate=args.degenerate)
    text = serialize_document(inst)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_report(args) -> int:
    inst, base_payments = _load(args.instance)
    result, doc = _solve_report(inst, None, "surplus")
    assignment = result.assignment
    overrides = _parse_payment_overrides(args.payments)
    payments = _resolve_payments(inst, assignment, base_payments, overrides)
    doc["welfare_paper"] = welfare_paper(inst, assignment, payments)
    _check_payments(doc, inst, assignment, payments, args.classic_core)
    synth = synthesize_stable_payments(inst, assignment)
    doc["synthesis"] = {"feasible": synth.feasible}
    if synth.feasible:
        doc["synthesis"]["payments"] = _pair_table(synth.schedule.entries)
    if args.with_oracle:
        objective, argmax = oracle_optimum(inst)
        doc["oracle"] = {
            "objective": objective,
            "agreement": objective == result.objective,
            "optima_count": len(argmax),
        }
    _emit(doc, args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rideshare-market",
        description="Exact traveler-vehicle assignment market solver and verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("instance", help="instance document path")
        p.add_argument("--format", choices=["text", "machine"], default="text")

    p = sub.add_parser("solve", help="compute the optimal assignment")
    common(p)
    p.add_argument("--objective", choices=["surplus", "paper"], default="surplus")
    p.add_argument("--payments", help="payment overrides, e.g. T1:V1=3,T2=5")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive optimum and solver cross-check")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("check", help="feasibility and stability of given payments")
    common(p)
    p.add_argument("--payments", help="payment overrides, e.g. T1:V1=3,T2=5")
    p.add_argument("--assignment", help="override assignment, e.g. T1=V1,T2=V1")
    p.add_argument("--classic-core", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("synthesize", help="synthesize a stable payment schedule")
    common(p)
    p.add_argument("--assignment", help="override assignment, e.g. T1=V1,T2=V1")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("generate", help="generate a seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=4, help="number of travelers")
    p.add_argument("--m", type=int, default=2, help="number of vehicles")
    p.add_argument("--degenerate", action="store_true", help="bias toward tied optima")
    p.add_argument("--output", "-o", help="write to file instead of stdout")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("report", help="full report: solve, checks, synthesis")
    common(p)
    p.add_argument("--payments", help="payment overrides")
    p.add_argument("--classic-core", action="store_true")
    p.add_argument("--with-oracle", action="store_true")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValidationError as exc:
        for message in exc.errors:
            print(f"error: {message}", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, OracleScaleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
