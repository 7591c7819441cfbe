import contextlib
import io
import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rideshare_market import PaymentSchedule, ValidationError
from rideshare_market.cli import main
from rideshare_market.generate import generate_instance
from rideshare_market.instance_io import (
    parse_document,
    parse_instance,
    serialize_document,
    serialize_instance,
)


def test_round_trip_canonical(canonical):
    text = serialize_instance(canonical)
    assert parse_instance(text) == canonical
    assert serialize_instance(parse_instance(text)) == text


def test_round_trip_generated_instances():
    for seed in range(10):
        inst = generate_instance(seed, n=4, m=2)
        assert parse_instance(serialize_instance(inst)) == inst
    inst = generate_instance(0, n=4, m=2, degenerate=True)
    assert parse_instance(serialize_instance(inst)) == inst


def test_round_trip_payments(canonical):
    t = PaymentSchedule({("T1", "V1"): F(7, 3), ("T2", "V1"): F(2)})
    text = serialize_document(canonical, t)
    doc = parse_document(text)
    assert doc.payments.entries == t.entries


def test_parse_rejects_floats(canonical):
    raw = json.loads(serialize_instance(canonical))
    raw["travelers"][0]["v_max"] = 10.0
    with pytest.raises(ValidationError, match="exact number"):
        parse_instance(json.dumps(raw))


def test_parse_rejects_wrong_schema_version(canonical):
    raw = json.loads(serialize_instance(canonical))
    raw["schema_version"] = 2
    with pytest.raises(ValidationError, match="schema_version"):
        parse_instance(json.dumps(raw))


def test_parse_reports_all_errors_at_once(canonical):
    raw = json.loads(serialize_instance(canonical))
    raw["travelers"][0]["destination"] = raw["travelers"][0]["origin"]
    raw["travelers"][1]["v_min"] = 0.5
    with pytest.raises(ValidationError) as exc:
        parse_instance(json.dumps(raw))
    messages = "\n".join(exc.value.errors)
    assert "origin equals destination" in messages
    assert "exact number" in messages


def test_parse_rejects_dangling_edge(canonical):
    raw = json.loads(serialize_instance(canonical))
    raw["network"]["edges"].append(["e9", "A", "Z"])
    with pytest.raises(ValidationError, match="head"):
        parse_instance(json.dumps(raw))


def _vehicle(**fields):
    return lambda raw: raw["vehicles"][0].update(fields)


def _traveler(**fields):
    return lambda raw: raw["travelers"][0].update(fields)


def _document(**sections):
    return lambda raw: raw.update(sections)


def _payment_without_inconvenience(raw):
    """T1 loses its inconvenience entry for V1, so the pair is not
    compatible, but the payments still price it."""
    raw["travelers"][0]["inconvenience"] = {}
    raw["payments"] = {"T1": {"V1": "5"}}


def _payment_off_route(raw):
    """A second vehicle V2 drives B->C only, which misses T1's A->C trip;
    the payments price T1 on both vehicles."""
    raw["vehicles"].append({**raw["vehicles"][0], "id": "V2", "route": ["e2"]})
    raw["travelers"][0]["inconvenience"]["V2"] = "0"
    raw["payments"] = {"T1": {"V1": "3", "V2": "1"}}


MALFORMED = [
    pytest.param(_vehicle(capacity="2"), r"capacity '2' is not an integer", id="capacity-string"),
    pytest.param(_vehicle(capacity=2.5), r"capacity 2.5 is not an integer", id="capacity-float"),
    pytest.param(_vehicle(capacity=True), r"capacity True is not an integer", id="capacity-bool"),
    pytest.param(
        lambda raw: raw["travelers"].__setitem__(0, "T1"),
        r"^travelers\[0\]: expected object, got string$",
        id="traveler-string",
    ),
    pytest.param(
        lambda raw: raw.update(vehicles={"V1": raw["vehicles"][0]}),
        r"^vehicles: expected list, got object$",
        id="vehicles-object",
    ),
    pytest.param(_document(network=[]), r"^network: expected object, got list$", id="network-list"),
    pytest.param(_document(options=[]), r"^options: expected object, got list$", id="options-list"),
    pytest.param(
        _traveler(inconvenience=["V1"]),
        r"^traveler 'T1': inconvenience: expected object, got list$",
        id="inconvenience-list",
    ),
    pytest.param(
        _vehicle(cost_shares=[]),
        r"^vehicle 'V1': cost_shares: expected object, got list$",
        id="cost-shares-list",
    ),
    pytest.param(_vehicle(route=5), r"^vehicle 'V1': route: expected list, got number$", id="route-number"),
    pytest.param(
        _document(payments={"T1": "3"}),
        r"^payments: \['T1'\]: expected object, got string$",
        id="payments-row-string",
    ),
    pytest.param(
        lambda raw: raw["network"]["vertices"].append([1]),
        r"^network: vertex \[1\] is not a string$",
        id="vertex-list",
    ),
    pytest.param(
        lambda raw: raw["network"]["vertices"].append(5),
        r"^network: vertex 5 is not a string$",
        id="vertex-number",
    ),
    pytest.param(
        lambda raw: raw["travelers"][0].pop("id"),
        r"^travelers\[0\]: id: expected string, got null$",
        id="traveler-id-missing",
    ),
    pytest.param(
        _traveler(id=5), r"^travelers\[0\]: id: expected string, got number$", id="traveler-id-number"
    ),
    pytest.param(
        _document(payments={"T9": {"V1": "1"}}),
        r"^payments: unknown traveler id 'T9'$",
        id="payment-unknown-traveler",
    ),
    pytest.param(
        _document(payments={"T1": {"V9": "1"}}),
        r"^payments: \['T1'\]: unknown vehicle id 'V9'$",
        id="payment-unknown-vehicle",
    ),
    pytest.param(
        _payment_without_inconvenience,
        r"^payments: pair \('T1', 'V1'\) is not compatible$",
        id="payment-no-inconvenience-entry",
    ),
    pytest.param(
        _payment_off_route,
        r"^payments: pair \('T1', 'V2'\) is not compatible$",
        id="payment-route-misses-trip",
    ),
    pytest.param(
        _vehicle(operating_cost="-1"),
        r"^vehicle 'V1': operating cost must be nonnegative$",
        id="entity-prefix-once",
    ),
    pytest.param(
        _traveler(v_max="1e5000"),
        r"^traveler 'T1': v_max: '1e5000' needs more than 4300 digits$",
        id="money-exponent-too-large",
    ),
    pytest.param(
        _traveler(v_max="1e-5000"),
        r"^traveler 'T1': v_max: '1e-5000' needs more than 4300 digits$",
        id="money-exponent-too-small",
    ),
]


@pytest.mark.parametrize("mutate, message", MALFORMED)
def test_malformed_document_is_a_validation_error(canonical, tmp_path, capsys, mutate, message):
    raw = json.loads(serialize_instance(canonical))
    mutate(raw)
    text = json.dumps(raw)
    with pytest.raises(ValidationError) as exc:
        parse_document(text)
    assert any(re.search(message, m) for m in exc.value.errors), exc.value.errors
    path = tmp_path / "malformed.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert any(re.search(message, line.removeprefix("error: ")) for line in err), err


def test_parse_syntax_error_has_position():
    with pytest.raises(ValidationError, match="line 1"):
        parse_instance("{not json")


@pytest.fixture
def canonical_path(canonical, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(canonical))
    return str(path)


def test_cli_solve_text(canonical_path, capsys):
    assert main(["solve", canonical_path]) == 0
    out = capsys.readouterr().out
    assert "objective: 10" in out
    assert "T1: V1" in out and "T2: V1" in out


def test_cli_solve_machine(canonical_path, capsys):
    assert main(["solve", canonical_path, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["assignment"] == {"T1": "V1", "T2": "V1"}
    assert doc["objective"] == "10"
    assert doc["dual_certificate"]["y"].keys() == {"T1", "T2"}


def test_cli_solve_paper_objective(canonical_path, capsys):
    code = main(
        ["solve", canonical_path, "--objective", "paper", "--payments", "T1=3,T2=2",
         "--format", "machine"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["welfare_paper"] == "9"


def test_cli_oracle_agreement(canonical_path, capsys):
    assert main(["oracle", canonical_path, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agreement"] is True
    assert doc["optimal_assignments"] == [{"T1": "V1", "T2": "V1"}]


def test_cli_check_default_passes(canonical_path, capsys):
    assert main(["check", canonical_path, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasibility"]["verdict"] is True
    assert doc["stability"]["verdict"] is True


def test_cli_check_unstable_payment_exits_1(canonical_path, capsys):
    assert main(["check", canonical_path, "--payments", "T1:V1=7", "--format", "machine"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["stability"]["verdict"] is False
    assert doc["stability"]["violations"][0]["kind"] == "exit_preferred"


def test_cli_check_infeasible_payment_exits_1(canonical_path, capsys):
    assert main(["check", canonical_path, "--payments", "T1:V1=9", "--format", "machine"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasibility"]["verdict"] is False
    assert doc["stability"]["verdict"] is None


def test_cli_synthesize(canonical_path, capsys):
    assert main(["synthesize", canonical_path, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payments"] == {"T1:V1": "2", "T2:V1": "2"}


def test_cli_synthesize_off_optimum_exits_1(canonical_path, capsys):
    code = main(["synthesize", canonical_path, "--assignment", "T2=V1", "--format", "machine"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is False
    assert doc["certificate"]


def test_cli_generate_deterministic(capsys):
    assert main(["generate", "--seed", "5", "--n", "3", "--m", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "--seed", "5", "--n", "3", "--m", "2"]) == 0
    assert capsys.readouterr().out == first
    parse_instance(first)


def test_cli_generate_to_file_then_report(tmp_path, capsys):
    path = str(tmp_path / "gen.json")
    assert main(["generate", "--seed", "9", "--n", "3", "--m", "2", "-o", path]) == 0
    code = main(["report", path, "--with-oracle", "--format", "machine"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle"]["agreement"] is True
    assert "synthesis" in doc and "feasibility" in doc


def test_cli_missing_file_exits_2(capsys):
    assert main(["solve", "/nonexistent/instance.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_payment_spec_exits_2(canonical_path, capsys):
    assert main(["check", canonical_path, "--payments", "T1:V1=one"]) == 2
    assert "exact number" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1e5000", "1e-5000"])
@pytest.mark.parametrize("command", ["solve", "check", "report"])
def test_cli_huge_payment_override_exits_2(canonical_path, capsys, command, value):
    """An exponent is checked before its power of ten is computed."""
    assert main([command, canonical_path, "--payments", f"T1:V1={value}"]) == 2
    assert capsys.readouterr().err == f"error: --payments: '{value}' needs more than 4300 digits\n"


def test_cli_huge_json_integer_exits_2(canonical, tmp_path, capsys):
    """A JSON integer past Python's 4300-digit conversion limit is a
    validation error, not a traceback from the JSON decoder."""
    path = tmp_path / "huge.json"
    path.write_text(serialize_instance(canonical).replace('"10"', "1" * 5000, 1))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: document: Exceeds the limit (4300")


def test_cli_deeply_nested_json_exits_2(tmp_path, capsys):
    """A document nested deeper than the JSON decoder can recurse is a
    validation error, not a ``RecursionError`` traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: document: arrays or objects nested too deeply\n"


@pytest.mark.parametrize("command", ["solve", "synthesize", "report"])
def test_cli_unprintable_derived_value_exits_2(command, tmp_path, capsys):
    """Money within the 4,300-digit rule can derive a valuation whose
    numerator has about 8,600 digits; printing it is a validation error
    with one message, and nothing is written to standard output."""
    doc = json.loads(serialize_instance(generate_instance(0, n=4, m=2)))
    t0 = doc["travelers"][0]
    t0["v_max"] = "1e4299"
    t0["inconvenience"] = {vid: "1e-4299" for vid in t0["inconvenience"]}
    path = tmp_path / "unprintable.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: output: a computed value has more than 4300 digits and cannot be printed\n"
    )


def test_cli_payment_override_off_the_compatible_pairs_exits_2(tmp_path, capsys):
    inst = generate_instance(0, n=4, m=2)
    assert ("T0", "V0") not in inst.compatible_pairs()
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(inst))
    assert main(["check", str(path), "--payments", "T0:V0=5"]) == 2
    assert "error: --payments: pair ('T0', 'V0') is not compatible" in capsys.readouterr().err
    assert main(["check", str(path), "--payments", "T9:V1=3"]) == 2
    assert "error: --payments: unknown traveler id 'T9'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, spec, message",
    [
        ("--assignment", "T1=V0,T1=V1", "--assignment: duplicate entry for traveler 'T1'"),
        ("--payments", "T1:V0=3,T1:V0=4", "--payments: duplicate entry for pair ('T1', 'V0')"),
        # T1 rides V0 at the optimum, so T1=3 prices the same pair
        ("--payments", "T1=3,T1:V0=4", "--payments: duplicate entry for pair ('T1', 'V0')"),
    ],
)
def test_cli_duplicate_override_exits_2(tmp_path, capsys, option, spec, message):
    inst = generate_instance(0, n=4, m=2)
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(inst))
    assert main(["check", str(path), option, spec]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_generate_negative_size_exits_2(capsys):
    assert main(["generate", "--seed", "1", "--n", "-3", "--m", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: generate: n and m must be >= 0, got n=-3, m=-1\n"
    assert captured.out == ""
    assert main(["generate", "--seed", "1", "--n", "2", "--m", "-1"]) == 2
    assert main(["generate", "--seed", "1", "--n", "0", "--m", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["travelers"] == []


def test_cli_invalid_document_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["solve", str(path)]) == 2
    assert "syntax error" in capsys.readouterr().err


def test_cli_usage_error_exits_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


#: values a mutation writes in place of a document field or payment
_STRAY = [None, True, 0, -1, 7, 2.5, "", "x", "-1", "3/2", "1/0", [], {}, ["e0"], {"V0": "1"}]


def _paths(node, path=()):
    """Every path into a JSON value, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def _mutated_documents(draw):
    """A generated document with one to three mutations: a dropped key or
    list entry, a field of the wrong type or value, or a stray payment
    entry (known or unknown ids, compatible or not, valid value or not)."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, min(n, 3)))
    inst = generate_instance(draw(st.integers(0, 30)), n=n, m=m)
    doc = json.loads(serialize_instance(inst))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "swap", "pay"]))
        if kind == "pay":
            payments = doc["payments"] if isinstance(doc.get("payments"), dict) else {}
            tid = draw(st.sampled_from([f"T{i}" for i in range(n + 1)]))
            row = payments[tid] if isinstance(payments.get(tid), dict) else {}
            row[draw(st.sampled_from([f"V{j}" for j in range(m + 1)]))] = draw(
                st.sampled_from(["0", "5", "3/2", *_STRAY])
            )
            payments[tid] = row
            doc["payments"] = payments
            continue
        paths = list(_paths(doc))
        if not paths:
            continue
        *parents, key = draw(st.sampled_from(paths))
        parent = doc
        for step in parents:
            parent = parent[step]
        if kind == "drop":
            del parent[key]
        else:
            parent[key] = draw(st.sampled_from(_STRAY))
    return json.dumps(doc)


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(_mutated_documents())
def test_cli_survives_mutated_documents(tmp_path_factory, text):
    """``check`` and ``report`` end every mutated document with an exit
    status, 0, 1 or 2, and never with an uncaught exception."""
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(text)
    for command in ("check", "report"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([command, str(path)]) in (0, 1, 2)
