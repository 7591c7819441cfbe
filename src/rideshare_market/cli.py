"""Command line interface.

Commands: solve, oracle, check, synthesize, generate, report.
Exit status: 0 success, 1 failed verdict (instability, infeasibility,
oracle disagreement), 2 validation or usage errors.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import sys
import warnings
from functools import cache

from rideshare_market.allocation import PaymentSchedule, check_payments, synthesize_stable_payments
from rideshare_market.errors import OracleScaleError, ValidationError
from rideshare_market.generate import generate_instance
from rideshare_market.instance_io import parse_document, serialize_document
from rideshare_market.market import (
    Assignment,
    UNASSIGNED,
    cost_recovery_gap,
    exact_number,
    scale_to_integers,
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
    """Full payment matrix scaled on the pair table's pairs, merged in
    ``int``s by position: document payments ``base``, then the parsed
    ``overrides``, then the break-even default max(0, surplus) of the
    table's column; a complete ``base`` without overrides is returned as is.
    ``TID=value`` prices the traveler's vehicle in ``assignment``, or, when
    that is ``None``, in the surplus optimum, solved only for such an entry."""
    matrix = inst.compatibility
    # parse_document admits only compatible pairs and builds a schedule
    # scaled on the priced pairs, the table's own when complete; without
    # one, no pair is priced
    base = base or PaymentSchedule.scaled((), matrix.den, [])
    if not overrides and base.pairs is matrix.pairs:
        return base
    priced = {}
    for (tid, vid), value in overrides:
        if tid not in inst._traveler_map:
            raise ValidationError(f"--payments: unknown traveler id {tid!r}")
        if vid is None:
            if assignment is None:
                assignment = _assignment(inst, None)
            vid = assignment.vehicle_of(tid)
            if vid is UNASSIGNED:
                raise ValidationError(
                    f"--payments: traveler {tid!r} is unassigned; use TID:VID=value"
                )
        if (tid, vid) not in matrix:
            raise ValidationError(f"--payments: pair ({tid!r}, {vid!r}) is not compatible")
        if (tid, vid) in priced:
            raise ValidationError(f"--payments: duplicate entry for pair ({tid!r}, {vid!r})")
        priced[(tid, vid)] = value
    if any(value < 0 for _, value in overrides):
        PaymentSchedule(priced)  # raises, naming each negative payment in the option's order
    den, lifted = scale_to_integers(priced.values(), base.den)
    up, lift = den // base.den, den // matrix.den
    if base.pairs is matrix.pairs:
        ints = [up * x for x in base.ints]
    else:
        ints = [lift * s if s > 0 else 0 for s in matrix.surplus]
        for pair, x in zip(base.pairs, base.ints):
            ints[matrix.position(pair)] = up * x
    for pair, x in zip(priced, lifted):
        ints[matrix.position(pair)] = x
    return PaymentSchedule.scaled(matrix.pairs, den, ints)


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


def _pair_table(values: dict):
    """``{"tid:vid": value}`` in pair order."""
    return {f"{tid}:{vid}": x for (tid, vid), x in sorted(values.items())}


def _report_check(report):
    return {
        "verdict": report.verdict,
        "violations": [
            {"kind": v.kind, "pair": list(v.pair), "lhs": v.lhs, "rhs": v.rhs}
            for v in report.violations
        ],
    }


def _emit(doc: dict, fmt: str):
    """Write ``doc`` as text, or as one line of JSON from ``json``'s own
    encoder, each exact number as its string.  The document is rendered and
    encoded in full first: a number too long for Python's int-to-string
    conversion, or text that standard output cannot encode, is a validation
    error, and nothing is written."""
    try:
        if fmt == "machine":
            text = json.dumps(doc, default=str) + "\n"
        else:
            out = io.StringIO()
            _emit_text(doc, out)
            text = out.getvalue()
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValidationError(
            f"output: a computed value has more than {limit} digits and cannot be printed"
        ) from None
    encoding = sys.stdout.encoding or "utf-8"
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


def _solve_report(inst, result, payments, objective) -> dict:
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
    cert = result.dual_certificate
    doc["dual_certificate"] = {"y": dict(sorted(cert.y.items())), "z": dict(sorted(cert.z.items()))}
    return doc


def cmd_solve(args) -> int:
    inst, base_payments = _load(args.instance)
    overrides = _parse_payment_overrides(args.payments)
    if args.objective == "paper":
        # a bare TID=value needs the surplus optimum before this solve
        payments = _resolve_payments(inst, None, base_payments, overrides)
        result = solve_optimal_assignment(inst, payments=payments)
    else:
        result = solve_optimal_assignment(inst)
        payments = None
        if base_payments is not None or overrides:
            payments = _resolve_payments(inst, result.assignment, base_payments, overrides)
    _emit(_solve_report(inst, result, payments, args.objective), args.format)
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
        pi, rho = result.allocation.pi, result.allocation.rho
        matched = assignment.assigned_pairs()
        doc["traveler_profit"] = _pair_table({p: pi[p] for p in matched})
        doc["vehicle_profit"] = _pair_table({p: rho[p] for p in matched})
    else:
        doc["certificate"] = [
            {"constraint": str(label), "multiplier": str(mu)} for label, mu in result.proof
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
    result = solve_optimal_assignment(inst)
    doc = _solve_report(inst, result, None, "surplus")
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


# built on the first call and shared by every later one: parsing keeps no state in it
@cache
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


def _print_warning(message, *_):
    """A ``warnings.showwarning`` that writes the message alone, no source line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run the command in ``argv`` and return its exit status.

    The command runs with the cyclic garbage collector paused, put back as
    found however the command ends: the documents, pair tables and schedules
    a command builds hold no reference cycles, so reference counting frees
    them as before and no output changes.  Only the CLI owns its process;
    library functions leave the collector alone."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    with warnings.catch_warnings():
        # each warning, the instance's for n < m among them, is one line of
        # its own on every run, however often the process has warned before
        warnings.simplefilter("always")
        warnings.showwarning = _print_warning
        collecting = gc.isenabled()
        gc.disable()
        try:
            return args.func(args)
        except ValidationError as exc:
            for message in exc.errors:
                print(f"error: {message}", file=sys.stderr)
            return EXIT_INVALID
        except (OSError, OracleScaleError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID
        finally:
            if collecting:
                gc.enable()


if __name__ == "__main__":
    sys.exit(main())
