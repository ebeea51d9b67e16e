"""Round-trip and strictness of the certificate JSON format."""

import copy
import dataclasses
import io
import json
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import ellspec
from ellspec.certificates import (
    certificate_from_dict,
    certificate_to_dict,
    divisor_from_json,
    divisor_to_json,
    dumps_certificates,
    load_certificates,
    loads_certificates,
    rational_from_str,
    rational_to_str,
    save_certificates,
)
from ellspec.cli import run
from ellspec.errors import SchemaError, TamperError
from ellspec.lattice import DivisorClass, Surface, named_class
from ellspec.solver import SearchBounds, solve, verify_certificate

SMALL_BOUNDS = SearchBounds(u_abs=4, x_abs=8, z_min=0, z_max=2, d_abs=12, a_max=1)


@pytest.fixture(scope="module")
def certs():
    found = solve(3, 6, SMALL_BOUNDS)
    assert found
    return found


# === scalars ===


def test_rational_strings_canonical():
    assert rational_to_str(Fraction(-3, 6)) == "-1/2"
    assert rational_to_str(Fraction(4)) == "4"
    assert rational_from_str("-1/2") == Fraction(-1, 2)
    assert rational_from_str("0") == 0


@pytest.mark.parametrize(
    "bad",
    [
        "2/4", "1.5", " 1", "1/-2", "-0", "+3", 7, None,
        "1e10000000", "1e4300", pytest.param("1" * 5000, id="5000-digits"),
        "1/1", "0/3", "01", "1/0", "1_0", "\u0661",
    ],
)
def test_rational_strings_reject_noncanonical(bad):
    with pytest.raises(SchemaError):
        rational_from_str(bad)


def test_rational_exponent_rejected_quickly():
    start = time.perf_counter()
    with pytest.raises(SchemaError):
        rational_from_str("1e10000000")
    assert time.perf_counter() - start < 1.0


# === divisor classes ===


def test_divisor_round_trip():
    d = named_class(Surface.BPRIME, "xi") * Fraction(5, 3)
    assert divisor_from_json(divisor_to_json(d)) == d


def test_divisor_rejects_malformed():
    good = divisor_to_json(named_class(Surface.B, "f"))
    with pytest.raises(SchemaError):
        divisor_from_json({**good, "surface": "A"})
    with pytest.raises(SchemaError):
        divisor_from_json({**good, "coeffs": good["coeffs"][:9]})
    with pytest.raises(SchemaError):
        divisor_from_json({**good, "extra": 1})
    with pytest.raises(SchemaError):
        divisor_from_json([])


# === whole certificates ===


def test_certificate_dict_round_trip(certs):
    for cert in certs:
        assert certificate_from_dict(certificate_to_dict(cert)) == cert


def test_single_certificate_serializes_as_object(certs):
    payload = json.loads(dumps_certificates(certs[:1]))
    assert payload["version"] == "1"
    assert "certificates" not in payload
    assert loads_certificates(dumps_certificates(certs[:1])) == certs[:1]


def test_many_certificates_serialize_as_array(certs):
    text = dumps_certificates(certs)
    payload = json.loads(text)
    assert [c["k"] for c in payload["certificates"]] == [c.k for c in certs]
    assert loads_certificates(text) == list(certs)


def test_file_round_trip(tmp_path, certs):
    path = tmp_path / "certs.json"
    save_certificates(path, certs)
    assert load_certificates(path) == list(certs)


def test_loaded_certificate_verifies(certs):
    reloaded = certificate_from_dict(certificate_to_dict(certs[0]))
    assert verify_certificate(reloaded).all_pass


def test_doctored_file_fails_verification(certs):
    obj = certificate_to_dict(certs[0])
    for entry in obj["report"]["entries"]:
        if entry["name"] == "S_s":
            entry["value"] = "-14"
    doctored = certificate_from_dict(obj)
    with pytest.raises(TamperError):
        verify_certificate(doctored)


# === strict loading ===


def test_rejects_wrong_version(certs):
    obj = certificate_to_dict(certs[0])
    obj["version"] = "2"
    with pytest.raises(SchemaError):
        certificate_from_dict(obj)


def test_rejects_missing_field(certs):
    obj = certificate_to_dict(certs[0])
    del obj["params"]
    with pytest.raises(SchemaError):
        certificate_from_dict(obj)


def test_rejects_non_integer_scalars(certs):
    obj = certificate_to_dict(certs[0])
    obj["u"] = "minus three"
    with pytest.raises(SchemaError):
        certificate_from_dict(obj)
    obj = certificate_to_dict(certs[0])
    obj["z"] = True
    with pytest.raises(SchemaError):
        certificate_from_dict(obj)


def test_rejects_row_param_mismatch(certs):
    obj = certificate_to_dict(certs[0])
    obj["params"]["k2"] = 2
    obj["params"]["k3"] = 6
    with pytest.raises(SchemaError):
        certificate_from_dict(obj)


def test_rejects_noncanonical_rational_in_coeffs(certs):
    obj = certificate_to_dict(certs[0])
    obj["params"]["l2"]["coeffs"][0] = "2/4"
    with pytest.raises(SchemaError):
        certificate_from_dict(obj)


def test_rejects_bad_json_text():
    with pytest.raises(SchemaError):
        loads_certificates("{not json")
    with pytest.raises(SchemaError):
        loads_certificates('{"version": "1", "certificates": 3}')


def test_null_z_round_trips(certs):
    cert = dataclasses.replace(certs[0], z=None)
    again = certificate_from_dict(certificate_to_dict(cert))
    assert again.z is None
    assert again == cert


# === codec against the json.dumps / Fraction oracles ===

GOLDEN = Path(ellspec.__file__).with_name("data") / "golden_certificate.json"


def _oracle_dumps(certs):
    """The reference spelling: the json module's indent-2 encoder."""
    if len(certs) == 1:
        payload = certificate_to_dict(certs[0])
    else:
        payload = {"version": "1", "certificates": [certificate_to_dict(c) for c in certs]}
    return json.dumps(payload, indent=2) + "\n"


def _oracle_rational(text):
    """The reference reading: Fraction's parser plus a canonical round trip."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None
    return value if str(value) == text else None


def _fractional(cert):
    """cert with fractional class coefficients and report values."""
    half = Fraction(1, 2)
    params = dataclasses.replace(
        cert.params,
        l2=cert.params.l2 * Fraction(5, 3),
        l3=cert.params.l3 - named_class(Surface.BPRIME, "xi") * half,
    )
    entries = tuple(
        dataclasses.replace(e, value=e.value - Fraction(7, 4)) if e.value is not None else e
        for e in cert.report.entries
    )
    report = dataclasses.replace(
        cert.report,
        entries=entries,
        c2_deficit=(Fraction(-1, 3), Fraction(22, 7)),
        c3=Fraction(-5, 6),
    )
    return dataclasses.replace(cert, m_class=cert.m_class * half, params=params, report=report)


def _noted(cert):
    notes = ("café ζ' \U0001d53c", 'say "hi"', "back\\slash", "tab\there\n\x00\x1f\x7f")
    report = dataclasses.replace(cert.report, notes=notes[::-1])
    return dataclasses.replace(cert, notes=notes, report=report)


def test_dumps_matches_json_indent2(certs):
    cases = [
        certs[:1],
        list(certs),
        [],
        [dataclasses.replace(certs[0], z=None)],
        [_fractional(certs[0])],
        [_fractional(c) for c in certs[:5]],
        [_noted(certs[0]), _noted(_fractional(certs[-1]))],
    ]
    for case in cases:
        text = dumps_certificates(case)
        assert text == _oracle_dumps(case)
        assert loads_certificates(text) == case


def test_dumps_rejects_what_json_cannot_encode(certs):
    bad = dataclasses.replace(certs[0], notes=(object(),))
    with pytest.raises(TypeError):
        _oracle_dumps([bad])
    with pytest.raises(TypeError):
        dumps_certificates([bad])


@given(st.lists(st.fractions(max_denominator=10**6), min_size=10, max_size=10))
def test_divisor_coeffs_render_as_str_fraction(coeffs):
    d = DivisorClass(Surface.B, coeffs)
    rendered = divisor_to_json(d)["coeffs"]
    assert rendered == [str(c) for c in d.coeffs]
    back = divisor_from_json(divisor_to_json(d))
    assert back == d and all(type(c) is Fraction for c in back.coeffs)


_RATIONAL_TEXT = st.one_of(
    st.text(alphabet="-0123456789/ +._e١", max_size=12),
    st.fractions().map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-50, 50), st.integers(-50, 50)),
    st.integers().map(str),
)


@given(_RATIONAL_TEXT)
def test_rational_from_str_matches_fraction_oracle(text):
    expected = _oracle_rational(text)
    if expected is None:
        with pytest.raises(SchemaError):
            rational_from_str(text)
    else:
        value = rational_from_str(text)
        assert type(value) is Fraction
        assert value == expected
        assert rational_to_str(value) == text


# === strict booleans and notes ===


@pytest.mark.parametrize("field", ["c2_deficit_effective", "nonsplit", "slope_negative"])
@pytest.mark.parametrize("value", ["no", 1, 0, None, [], "true"])
def test_report_booleans_must_be_json_booleans(certs, field, value):
    obj = certificate_to_dict(certs[0])
    obj["report"][field] = value
    with pytest.raises(SchemaError):
        certificate_from_dict(obj)


@pytest.mark.parametrize("where", ["certificate", "report"])
@pytest.mark.parametrize("value", ["ab", [1, 2], ["ok", None], {"a": "b"}, 3])
def test_notes_must_be_string_arrays(certs, where, value):
    obj = certificate_to_dict(certs[0])
    (obj if where == "certificate" else obj["report"])["notes"] = value
    with pytest.raises(SchemaError):
        certificate_from_dict(obj)


@pytest.mark.parametrize("value", [{}, "", {"S_e": {}}])
def test_report_entries_must_be_an_array(certs, value):
    obj = certificate_to_dict(certs[0])
    obj["report"]["entries"] = value
    with pytest.raises(SchemaError):
        certificate_from_dict(obj)


def test_verify_exits_2_on_non_boolean(tmp_path):
    obj = json.loads(GOLDEN.read_text())
    obj["report"]["c2_deficit_effective"] = "no"
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(obj, indent=2))
    with redirect_stderr(io.StringIO()) as err:
        assert run(["verify", str(path)]) == 2
    assert "'c2_deficit_effective' must be a boolean" in err.getvalue()


@pytest.mark.parametrize(
    "text", ["[" * 100000, "[" + "1" * 5000 + "]"], ids=["deep-nesting", "5000-digit-int"]
)
def test_loads_rejects_pathological_json(text):
    with pytest.raises(SchemaError):
        loads_certificates(text)


@pytest.mark.parametrize(
    "doctor",
    [
        lambda obj: obj.update(extra=1),
        lambda obj: obj["report"]["entries"][0].update(bogus=True),
        lambda obj: obj["row"].update(k=3),
        lambda obj: obj["hprime"].update(f2=0),
        lambda obj: obj["params"].update(k=3),
        lambda obj: obj["report"].update(all_pass=True),
        lambda obj: obj.pop("notes"),
        lambda obj: obj["report"].pop("notes"),
        lambda obj: obj.pop("basis_convention"),
        lambda obj: obj.update(basis_convention="picard(l,e1..e9)"),
    ],
    ids=[
        "extra-top-level-key", "bogus-entry-key", "row-key", "hprime-key", "params-key",
        "report-key", "no-notes", "no-report-notes", "no-basis", "other-basis",
    ],
)
def test_loader_accepts_exactly_the_written_keys(doctor):
    obj = json.loads(GOLDEN.read_text())
    doctor(obj)
    with pytest.raises(SchemaError):
        certificate_from_dict(obj)
    with pytest.raises(SchemaError):
        loads_certificates(json.dumps({"version": "1", "certificates": [obj, obj]}))


def test_file_wrapper_accepts_exactly_the_written_keys():
    obj = json.loads(GOLDEN.read_text())
    text = json.dumps({"version": "1", "certificates": [obj, obj], "count": 2})
    with pytest.raises(SchemaError):
        loads_certificates(text)


# === the verify boundary ===


def test_golden_file_round_trips_byte_for_byte():
    text = GOLDEN.read_text()
    assert dumps_certificates(loads_certificates(text)) == text


def _paths(node, prefix=()):
    """Every key/index path into a JSON tree, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_GOLDEN_OBJ = json.loads(GOLDEN.read_text())
_GOLDEN_PATHS = list(_paths(_GOLDEN_OBJ))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _node(tree, path):
    for key in path:
        tree = tree[key]
    return tree


_GOLDEN_OBJECTS = [()] + [p for p in _GOLDEN_PATHS if isinstance(_node(_GOLDEN_OBJ, p), dict)]


def _verify_doctored(obj):
    """Run verify on obj written as the writer would; it must end in 0, 1
    or 2, and a file that verifies must dump back to its own bytes."""
    text = json.dumps(obj, indent=2) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "fuzzed.json"
        target.write_text(text)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = run(["verify", str(target)])
    assert code in (0, 1, 2)
    if code == 0:
        assert dumps_certificates(loads_certificates(text)) == text


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(_GOLDEN_PATHS), _JSON_VALUES)
def test_verify_survives_any_one_field_replaced(path, value):
    obj = copy.deepcopy(_GOLDEN_OBJ)
    _node(obj, path[:-1])[path[-1]] = value
    _verify_doctored(obj)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(_GOLDEN_OBJECTS), st.text(max_size=8), _JSON_VALUES)
def test_verify_survives_any_one_key_inserted(path, key, value):
    obj = copy.deepcopy(_GOLDEN_OBJ)
    node = _node(obj, path)
    assume(key not in node)
    node[key] = value
    _verify_doctored(obj)


@pytest.mark.parametrize("path", _GOLDEN_PATHS, ids=lambda p: "/".join(map(str, p)))
def test_verify_survives_any_one_key_deleted(path):
    obj = copy.deepcopy(_GOLDEN_OBJ)
    del _node(obj, path[:-1])[path[-1]]
    _verify_doctored(obj)
