import contextlib
import io
import json
import re
import shlex
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rideshare_market import MarketInstance, PaymentSchedule, ValidationError, Vehicle
from rideshare_market.cli import main
from rideshare_market.generate import generate_instance
from rideshare_market.instance_io import parse_document, serialize_document


def test_round_trip_canonical(canonical):
    text = serialize_document(canonical)
    assert parse_document(text).instance == canonical
    assert serialize_document(parse_document(text).instance) == text


def test_round_trip_generated_instances():
    for seed in range(10):
        inst = generate_instance(seed, n=4, m=2)
        assert parse_document(serialize_document(inst)).instance == inst
    inst = generate_instance(0, n=4, m=2, degenerate=True)
    assert parse_document(serialize_document(inst)).instance == inst


def test_round_trip_explicit_mode(canonical):
    vehicle = canonical.vehicles[0]
    shares = {"T1": F(3, 2), "T2": F(5, 2)}
    inst = MarketInstance(
        canonical.network,
        canonical.travelers,
        (Vehicle(vehicle.id, vehicle.route, 2, vehicle.operating_cost, cost_shares=shares),),
        cost_share_mode="explicit",
    )
    text = serialize_document(inst)
    assert json.loads(text)["vehicles"][0]["cost_shares"] == {"T1": "3/2", "T2": "5/2"}
    assert parse_document(text).instance == inst
    assert serialize_document(parse_document(text).instance) == text


def test_round_trip_payments(canonical):
    t = PaymentSchedule({("T1", "V1"): F(7, 3), ("T2", "V1"): F(2)})
    text = serialize_document(canonical, t)
    doc = parse_document(text)
    assert doc.payments.entries == t.entries


def test_parse_rejects_floats(canonical):
    raw = json.loads(serialize_document(canonical))
    raw["travelers"][0]["v_max"] = 10.0
    with pytest.raises(ValidationError, match="exact number"):
        parse_document(json.dumps(raw))


def test_parse_rejects_wrong_schema_version(canonical):
    raw = json.loads(serialize_document(canonical))
    raw["schema_version"] = 2
    with pytest.raises(ValidationError, match="schema_version"):
        parse_document(json.dumps(raw))


def test_parse_reports_all_errors_at_once(canonical):
    raw = json.loads(serialize_document(canonical))
    raw["travelers"][0]["destination"] = raw["travelers"][0]["origin"]
    raw["travelers"][1]["v_min"] = 0.5
    with pytest.raises(ValidationError) as exc:
        parse_document(json.dumps(raw))
    messages = "\n".join(exc.value.errors)
    assert "origin equals destination" in messages
    assert "exact number" in messages


def test_parse_rejects_dangling_edge(canonical):
    raw = json.loads(serialize_document(canonical))
    raw["network"]["edges"].append(["e9", "A", "Z"])
    with pytest.raises(ValidationError, match="head"):
        parse_document(json.dumps(raw))


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


def _negative_explicit_share(raw):
    """Explicit mode, with V1's share for T1 below zero."""
    raw["options"]["cost_share_mode"] = "explicit"
    raw["vehicles"][0]["cost_shares"] = {"T1": "-1", "T2": "2"}


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
        _document(schema_version=True),
        r"^document: schema_version must be 1, got True$",
        id="schema-version-bool",
    ),
    pytest.param(
        _document(schema_version=1.0),
        r"^document: schema_version must be 1, got 1.0$",
        id="schema-version-float",
    ),
    pytest.param(
        lambda raw: raw["travelers"].append(raw["travelers"][0]),
        r"^instance: duplicate traveler id 'T1'$",
        id="duplicate-traveler",
    ),
    pytest.param(
        lambda raw: raw["vehicles"].append(raw["vehicles"][0]),
        r"^instance: duplicate vehicle id 'V1'$",
        id="duplicate-vehicle",
    ),
    pytest.param(
        _document(options={"cost_share_mode": "per_ride"}),
        r"^instance: unknown cost_share_mode 'per_ride'$",
        id="unknown-cost-share-mode",
    ),
    pytest.param(
        _negative_explicit_share,
        r"^vehicle 'V1': cost share for traveler 'T1' negative$",
        id="negative-explicit-share",
    ),
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
        lambda raw: raw["travelers"][0]["inconvenience"].update(V9="1"),
        r"^traveler 'T1': inconvenience: unknown vehicle id 'V9'$",
        id="inconvenience-unknown-vehicle",
    ),
    pytest.param(
        _vehicle(cost_shares={"T1": "1", "T9": "1"}),
        r"^vehicle 'V1': cost_shares: unknown traveler id 'T9'$",
        id="cost-shares-unknown-traveler",
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
    # a misspelt key is an error at every level, never silently dropped
    pytest.param(
        _document(payment={"T1": {"V1": "3"}}),
        r"^document: unknown key 'payment'$",
        id="unknown-document-key",
    ),
    pytest.param(
        lambda raw: raw["network"].update(edge=[]),
        r"^network: unknown key 'edge'$",
        id="unknown-network-key",
    ),
    pytest.param(
        _traveler(vmax="9"), r"^traveler 'T1': unknown key 'vmax'$", id="unknown-traveler-key"
    ),
    pytest.param(
        _vehicle(capcity=2), r"^vehicle 'V1': unknown key 'capcity'$", id="unknown-vehicle-key"
    ),
    pytest.param(
        _document(options={"cost_share_mode": "per_seat", "mode": "explicit"}),
        r"^options: unknown key 'mode'$",
        id="unknown-options-key",
    ),
]


@pytest.mark.parametrize("mutate, message", MALFORMED)
def test_malformed_document_is_a_validation_error(canonical, tmp_path, capsys, mutate, message):
    raw = json.loads(serialize_document(canonical))
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


def test_unknown_ids_are_reported_after_both_sections(canonical):
    """An inconvenience or cost_shares id must name an entity of the
    document, in either cost-share mode.  An entity with an error of its
    own still has a known id, so it draws no second message."""
    raw = json.loads(serialize_document(canonical))
    raw["options"]["cost_share_mode"] = "explicit"
    raw["travelers"][1]["inconvenience"].update({"V9": "1", "": "0"})
    raw["vehicles"][0]["cost_shares"] = {"T1": "1", "T2": "1", "T0": "1"}
    raw["vehicles"].append({**raw["vehicles"][0], "id": "V2", "capacity": 0, "cost_shares": {}})
    raw["travelers"][0]["inconvenience"]["V2"] = "1"
    with pytest.raises(ValidationError) as exc:
        parse_document(json.dumps(raw))
    assert exc.value.errors == [
        "vehicle 'V2': capacity must be >= 1",
        "traveler 'T2': inconvenience: unknown vehicle id 'V9'",
        "traveler 'T2': inconvenience: unknown vehicle id ''",
        "vehicle 'V1': cost_shares: unknown traveler id 'T0'",
    ]


def test_top_level_array_is_a_validation_error(tmp_path, capsys):
    with pytest.raises(ValidationError) as exc:
        parse_document("[]")
    assert exc.value.errors == ["document: top level must be an object"]
    path = tmp_path / "array.json"
    path.write_text("[]")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: document: top level must be an object\n"


def test_parse_syntax_error_has_position():
    with pytest.raises(ValidationError, match="line 1"):
        parse_document("{not json")


def test_repeated_malformed_money_is_reported_at_every_location(canonical, tmp_path, capsys):
    """A malformed or over-long money string is reported wherever it
    appears, in document order, even though a well-formed repeated string
    is converted once per document."""
    raw = json.loads(serialize_document(canonical))
    for traveler in raw["travelers"]:
        traveler["v_min"] = "x1"
        traveler["inconvenience"]["V1"] = "1e9999"
    errors = [
        f"traveler '{tid}': {message}"
        for tid in ("T1", "T2")
        for message in (
            "v_min: not an exact number: 'x1' (use \"p/q\" strings)",
            "inconvenience['V1']: '1e9999' needs more than 4300 digits",
        )
    ]
    with pytest.raises(ValidationError) as exc:
        parse_document(json.dumps(raw))
    assert exc.value.errors == errors
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {m}" for m in errors]


def _money_strings():
    """Nonnegative money strings in every accepted form: integers, ``p/q``
    (unreduced too), decimals, exponents and signs."""
    digits = st.integers(0, 10**6).map(str)
    unsigned = st.one_of(
        digits,
        st.builds("{}/{}".format, digits, st.integers(1, 999)),
        st.builds("{}.{}".format, digits, digits),
        st.builds("{}{}{}".format, digits, st.sampled_from("eE"), st.integers(-20, 20)),
        st.sampled_from(["3/6", ".5", "5.", "007"]),
    )
    return st.one_of(
        st.builds("{}{}".format, st.sampled_from(["", "+"]), unsigned),
        st.sampled_from(["-0", "-0/7", "-0.0e3"]),
    )


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_repeated_money_strings_parse_exactly(data):
    """Every money field of a document drawn from a small pool of strings,
    so that strings repeat, parses to exactly ``Fraction`` of its string."""
    pool = data.draw(st.lists(_money_strings(), min_size=1, max_size=4))
    pick = st.sampled_from(pool)
    travelers = []
    for tid, origin in (("T1", "A"), ("T2", "B")):
        # v_max is the largest of the three, as the traveler rules require
        v_min, phi, v_max = sorted((data.draw(pick) for _ in range(3)), key=F)
        travelers.append({"id": tid, "origin": origin, "destination": "C", "v_max": v_max,
                          "v_min": v_min, "inconvenience": {"V1": phi}})
    vehicle = {"id": "V1", "route": ["e1", "e2"], "capacity": 2,
               "operating_cost": data.draw(pick),
               "cost_shares": {"T1": data.draw(pick), "T2": data.draw(pick)}}
    payments = {"T1": {"V1": data.draw(pick)}, "T2": {"V1": data.draw(pick)}}
    doc = parse_document(json.dumps({
        "schema_version": 1,
        "network": {"vertices": ["A", "B", "C"], "edges": [["e1", "A", "B"], ["e2", "B", "C"]]},
        "travelers": travelers,
        "vehicles": [vehicle],
        "options": {"cost_share_mode": "explicit"},
        "payments": payments,
    }))
    for t, written in zip(doc.instance.travelers, travelers):
        assert (t.v_max, t.v_min, t.inconvenience) == (
            F(written["v_max"]), F(written["v_min"]), {"V1": F(written["inconvenience"]["V1"])}
        )
    (v,) = doc.instance.vehicles
    assert v.operating_cost == F(vehicle["operating_cost"])
    assert v.cost_shares == {tid: F(s) for tid, s in vehicle["cost_shares"].items()}
    assert doc.payments.entries == {(tid, "V1"): F(row["V1"]) for tid, row in payments.items()}


@pytest.mark.parametrize("value", ["1_000", " 3", "\t3", "\u0663", "1 / 2", "\uff13/2"])
def test_money_outside_the_ascii_grammar_exits_2(canonical, tmp_path, capsys, value):
    """Underscores, whitespace and non-ASCII digits are outside the money
    grammar, though some Python versions' ``Fraction`` accepts them: a
    document field and a ``--payments`` value holding one both exit 2."""
    raw = json.loads(serialize_document(canonical))
    raw["travelers"][0]["v_min"] = value
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 2
    message = f"not an exact number: {value!r}"
    assert f"error: traveler 'T1': v_min: {message}" in capsys.readouterr().err
    path.write_text(serialize_document(canonical))
    assert main(["check", str(path), "--payments", f"T1:V1={value}"]) == 2
    assert capsys.readouterr().err == f"error: --payments: {message}\n"


def test_duplicate_keys_are_a_validation_error(canonical, tmp_path, capsys):
    """An object that repeats a key is malformed: each repeated key is
    named, where ``json.loads`` alone would keep its last value."""
    text = serialize_document(canonical, PaymentSchedule({("T1", "V1"): F(3)}))
    text = text.replace('"v_max": "10"', '"v_max": "10", "v_max": "9"')
    text = text.replace('"V1": "3"', '"V1": "3", "V1": "4"')
    errors = ["document: duplicate key 'v_max'", "document: duplicate key 'V1'"]
    with pytest.raises(ValidationError) as exc:
        parse_document(text)
    assert exc.value.errors == errors
    path = tmp_path / "duplicate.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {m}" for m in errors]


@pytest.fixture
def canonical_path(canonical, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(serialize_document(canonical))
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
    parse_document(first)


def test_cli_generate_degenerate(capsys):
    assert main(["generate", "--seed", "3", "--n", "5", "--m", "2", "--degenerate"]) == 0
    expected = serialize_document(generate_instance(3, n=5, m=2, degenerate=True))
    assert capsys.readouterr().out == expected
    assert expected != serialize_document(generate_instance(3, n=5, m=2))


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
    path.write_text(serialize_document(canonical).replace('"10"', "1" * 5000, 1))
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
    doc = json.loads(serialize_document(generate_instance(0, n=4, m=2)))
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


@pytest.mark.parametrize("command", [["oracle"], ["report", "--with-oracle"]])
def test_cli_oracle_beyond_its_scale_exits_2(command, tmp_path, capsys):
    """A market past the enumeration's guard is a usage error with one
    message, not a traceback, and nothing is written to standard output."""
    path = tmp_path / "large.json"
    path.write_text(serialize_document(generate_instance(1, n=11, m=2)))
    assert main([command[0], str(path), *command[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: oracle scale exceeded: n=11, m=2 allows up to 177147 maps\n"


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every ``rideshare-market`` line of the README's CLI block runs, in
    order, in one directory, and ends in a verdict (exit 0 or 1)."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("rideshare-market ")]
    assert len(lines) >= 7
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) in (0, 1), line
    capsys.readouterr()


def test_cli_non_utf8_document_exits_2(tmp_path, capsys):
    """A document that is not UTF-8 text is a validation error naming the
    byte, not a ``UnicodeDecodeError`` traceback."""
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: document: not UTF-8 text at byte 0: invalid start byte\n"


@pytest.mark.parametrize("command", ["solve", "check", "synthesize", "report"])
def test_cli_unencodable_output_exits_2(command, tmp_path):
    """An id that is a lone surrogate parses, but no UTF-8 stream can write
    it: text output is a validation error with one message, and not one
    byte reaches standard output.  Machine output escapes it, as JSON may."""
    text = serialize_document(generate_instance(7, n=4, m=2)).replace('"T0"', '"T\\ud800"')
    path = tmp_path / "surrogate.json"
    path.write_text(text)
    for fmt in ("text", "machine"):
        raw, err = io.BytesIO(), io.StringIO()
        stdout = io.TextIOWrapper(raw, encoding="utf-8", errors="strict")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            status = main([command, str(path), "--format", fmt])
        stdout.flush()
        if fmt == "text":
            assert (status, raw.getvalue()) == (2, b"")
            assert err.getvalue() == "error: output: '\\ud800' cannot be encoded as utf-8\n"
        else:
            assert status in (0, 1) and err.getvalue() == ""
            assert "T\ud800" in json.loads(raw.getvalue())["assignment"]


@pytest.mark.parametrize("command", ["check", "synthesize"])
def test_cli_empty_assignment_is_the_empty_assignment(command, tmp_path, capsys):
    """Only an absent ``--assignment`` means the optimum: an empty one, like
    ``,``, leaves every traveler unassigned."""
    path = tmp_path / "instance.json"
    path.write_text(serialize_document(generate_instance(7, n=4, m=2)))
    assert main([command, str(path), "--format", "machine"]) in (0, 1)
    assert set(json.loads(capsys.readouterr().out)["assignment"].values()) == {"V0", "V1", None}
    docs = []
    for spec in ("", ","):
        status = main([command, str(path), "--assignment", spec, "--format", "machine"])
        docs.append((status, json.loads(capsys.readouterr().out)))
    assert docs[0] == docs[1]
    assert set(docs[0][1]["assignment"].values()) == {None}
    # literal check tests only the per-traveler inequalities; synthesis adds
    # the blocking-pair coupling, which the empty assignment fails
    assert docs[0][0] == (0 if command == "check" else 1)


def test_cli_payment_override_off_the_compatible_pairs_exits_2(tmp_path, capsys):
    inst = generate_instance(0, n=4, m=2)
    assert ("T0", "V0") not in inst.compatible_pairs()
    path = tmp_path / "instance.json"
    path.write_text(serialize_document(inst))
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
        # an entry without "=" is malformed, not a duplicate
        ("--assignment", "T0", "--assignment: entry 'T0' is not TID=VID"),
        ("--payments", "T0", "--payments: entry 'T0' is not KEY=VALUE"),
    ],
)
def test_cli_duplicate_override_exits_2(tmp_path, capsys, option, spec, message):
    inst = generate_instance(0, n=4, m=2)
    path = tmp_path / "instance.json"
    path.write_text(serialize_document(inst))
    assert main(["check", str(path), option, spec]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_price_of_an_unassigned_traveler_exits_2(tmp_path, capsys):
    """``TID=value`` prices the traveler's ride; with no vehicle in the
    market the traveler rides none."""
    path = tmp_path / "instance.json"
    path.write_text(serialize_document(generate_instance(2, n=3, m=0)))
    assert main(["check", str(path), "--payments", "T0=1"]) == 2
    message = "error: --payments: traveler 'T0' is unassigned; use TID:VID=value\n"
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("command", ["solve", "oracle", "check", "synthesize", "report"])
def test_cli_cost_share_mode_option_is_a_usage_error(canonical_path, capsys, command):
    """The document's ``options.cost_share_mode`` alone sets the mode."""
    assert main([command, canonical_path, "--cost-share-mode", "explicit"]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --cost-share-mode explicit" in captured.err
    assert captured.out == ""


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
    doc = json.loads(serialize_document(inst))
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
    status, 0, 1 or 2, and never with an uncaught exception, writing to a
    strict UTF-8 stream as a terminal or pipe would."""
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(text)
    for command in ("check", "report"):
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            assert main([command, str(path)]) in (0, 1, 2)
