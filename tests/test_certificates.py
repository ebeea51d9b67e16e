"""Round-trip and strictness of the certificate JSON format."""

import copy
import dataclasses
import gc
import hashlib
import io
import json
import random
import re
import stat
import sys
import tempfile
import time
import tracemalloc
import weakref
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import ellspec
from ellspec import certificates
from ellspec.assembly import BundleParams, ConstraintEntry, ConstraintReport
from ellspec.certificates import (
    BASIS_CONVENTION,
    certificate_from_dict,
    certificate_to_dict,
    divisor_from_json,
    divisor_to_json,
    dumps_certificates,
    load_certificates,
    loads_certificates,
    loads_json,
    rational_from_str,
    rational_to_str,
    save_certificates,
)
from ellspec.cli import run
from ellspec.errors import SchemaError, TamperError
from ellspec.lattice import RANK, DivisorClass, Surface, named_class
from ellspec.solver import (
    SearchBounds,
    SolutionCertificate,
    Table1Row,
    solve,
    verify_certificate,
)

SMALL_BOUNDS = SearchBounds(u_abs=4, x_abs=8, z_min=0, z_max=2, d_abs=12, a_max=1)


@pytest.fixture(scope="module")
def certs():
    found = solve(3, 6, SMALL_BOUNDS)
    assert found
    return found


def _load_both(text):
    """loads_certificates(text), once load_certificates of the text saved to
    a file, read 7 characters at a time so that values and keys are cut
    between reads, is found to give the same certificates or error."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path = Path(tmp) / "loaded.json"
        path.write_text(text, encoding="utf-8")
        patch.setattr(certificates, "_CHUNK", 7)
        try:
            from_file = load_certificates(path)
        except SchemaError as exc:
            from_file = exc
    try:
        from_text = loads_certificates(text)
    except SchemaError as exc:
        assert isinstance(from_file, SchemaError) and str(from_file) == str(exc)
        raise
    assert from_file == from_text
    return from_text


# === scalars ===


def test_rational_strings_canonical():
    assert rational_to_str(Fraction(-3, 6)) == "-1/2"
    assert rational_to_str(Fraction(4)) == "4"
    assert rational_from_str("-1/2") == Fraction(-1, 2)
    assert rational_from_str("0") == 0


_NONCANONICAL = [
    "2/4", "1.5", " 1", "1/-2", "-0", "+3", 7, None,
    "1e10000000", "1e4300", pytest.param("1" * 5000, id="5000-digits"),
    "1/1", "0/3", "01", "1/0", "1_0", "\u0661",
]


@pytest.mark.parametrize("bad", _NONCANONICAL)
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


@pytest.mark.parametrize("bad", _NONCANONICAL)
def test_divisor_rejects_a_noncanonical_coefficient(bad):
    """Among integer coefficients, one bad spelling is found and located."""
    good = divisor_to_json(named_class(Surface.B, "f"))
    with pytest.raises(SchemaError) as caught:
        divisor_from_json({**good, "coeffs": good["coeffs"][:3] + [bad] + good["coeffs"][4:]})
    assert caught.value.path == ("coeffs", 3)


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


def test_saved_file_is_the_dumped_text(tmp_path, certs):
    """The file form, the single-object form, and a loaded copy whose
    objects are shared: each saved file holds the dumped text."""
    loaded = loads_certificates(dumps_certificates(certs))
    path = tmp_path / "certs.json"
    for case in (certs, certs[:1], loaded):
        save_certificates(path, case)
        assert path.read_bytes() == dumps_certificates(case).encode()


def test_save_streams_the_text(tmp_path, certs):
    """save_certificates writes the text a piece at a time: it never holds
    the whole text, nor a rendered copy of each certificate."""
    size = len(dumps_certificates(certs))
    tracemalloc.start()
    try:
        save_certificates(tmp_path / "certs.json", certs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size / 2


def _nested_detail(cert, value):
    """cert with value where each first detail takes a boolean: json.dumps
    would nest a list or dict there, so the writer raises TypeError."""
    entries = tuple(
        dataclasses.replace(e, detail=((e.detail[0][0], value), *e.detail[1:])) if e.detail else e
        for e in cert.report.entries
    )
    return dataclasses.replace(cert, report=dataclasses.replace(cert.report, entries=entries))


def test_failed_save_leaves_no_partial_file(tmp_path, certs):
    """A render error part way through leaves the old file as it was and no
    sibling file; a save that completes gives a plain open's file mode."""
    path = tmp_path / "certs.json"
    path.write_bytes(b"old bytes")
    with pytest.raises(TypeError):
        save_certificates(path, [*certs, _nested_detail(certs[-1], ["x"])])
    assert path.read_bytes() == b"old bytes"
    assert list(tmp_path.iterdir()) == [path]
    plain, saved = tmp_path / "plain.json", tmp_path / "saved.json"
    with open(plain, "w"):
        pass
    save_certificates(saved, certs)
    assert stat.S_IMODE(saved.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def _sharing(certs, get):
    """For each certificate, the index of the first one whose get(cert) is
    the same object."""
    first = {}
    return [first.setdefault(id(get(cert)), i) for i, cert in enumerate(certs)]


_SHARED_MEMBERS = ("row", "m_class", "hprime", "report")
# a certificate's members as written, in its two runs around params
_RUNS = {
    "before": ("version", "basis_convention", "row", "k", "u", "x", "z", "m_class"),
    "after": ("hprime", "report", "notes"),
}


def _parsed_whole(monkeypatch):
    """The list, filled as a file loads, of the indices of the certificates
    that _Document.value parses whole."""
    parsed = []
    value = certificates._Document.value

    def spy(self, path):
        if path[:1] == ("certificates",) and len(path) > 1:
            parsed.append(path[1])
        return value(self, path)

    monkeypatch.setattr(certificates._Document, "value", spy)
    return parsed


def _run_spans(text, index):
    """The (start, end) spans in a file's text of certificate number index's
    two runs: from its "{" to the end of the member before params, and from
    the end of params to its "}"."""
    start = text.rindex("{", 0, [m.start() for m in re.finditer('"version": ', text)][index + 1])
    params_start, params_end = _member_span(text, index, "params")
    before_end = len(text[:text.rindex(",", 0, params_start)].rstrip())
    return {"before": (start, before_end),
            "after": (params_end, json.JSONDecoder().raw_decode(text, start)[1])}


def _family_changes(text, count):
    """The indices of the certificates whose two runs are those of no
    certificate before them: the first certificate of each family text."""
    first = {}
    for i in range(count):
        first.setdefault(tuple(text[a:b] for a, b in _run_spans(text, i).values()), i)
    return sorted(first.values())


@pytest.mark.parametrize("chunk", [1, 7, 64, 4096, 1 << 16])
def test_file_load_in_pieces_is_the_text_load(tmp_path, monkeypatch, certs, chunk):
    """Reads of any size, the default's included, give the certificates and
    the sharing of a whole text.  Twice the longest certificate is held
    before each check, so only the first certificate is parsed whole, even
    where a read is shorter than a certificate: every other one is answered
    from the text around params of the first."""
    text = dumps_certificates(certs)
    path = tmp_path / "certs.json"
    path.write_text(text)
    expected = loads_certificates(text)
    parsed = _parsed_whole(monkeypatch)
    monkeypatch.setattr(certificates, "_CHUNK", chunk)
    loaded = load_certificates(path)
    assert loaded == expected == certs
    assert parsed == _family_changes(text, len(certs)) == [0]
    for get in map(attrgetter, ("row", "report", "hprime", "m_class", "params.l2", "params.l3")):
        assert _sharing(loaded, get) == _sharing(expected, get)


@pytest.mark.parametrize("chunk", [1 << 12, 1 << 16])
def test_no_certificate_a_read_cuts_is_parsed_whole(tmp_path, monkeypatch, certs, chunk):
    """At 4 KB and 64 KB reads only the first certificate, which no earlier
    one answers for, is parsed whole by _Document.value, and the load dumps
    to the file's bytes."""
    text = dumps_certificates(certs)
    path = tmp_path / "certs.json"
    path.write_text(text)
    parsed = []
    value = certificates._Document.value

    def spy(self, path):
        parsed.append(path)
        return value(self, path)

    monkeypatch.setattr(certificates._Document, "value", spy)
    monkeypatch.setattr(certificates, "_CHUNK", chunk)
    loaded = load_certificates(path)
    assert len(text) > 8 * chunk  # reads cut certificates
    assert [p for p in parsed if p[:1] == ("certificates",) and len(p) > 1] == [("certificates", 0)]
    assert dumps_certificates(loaded) == text


@pytest.mark.parametrize("chunk", [1 << 12, 1 << 16])
def test_each_certificate_is_walked_once(tmp_path, monkeypatch, certs, chunk):
    """At 4 KB and 64 KB reads each certificate after the first is checked
    once against the text around params of the one before, and each check
    answers; a read never cuts a check, so none is made again, and no
    certificate is parsed twice."""
    path = tmp_path / "certs.json"
    save_certificates(path, certs)
    checks, parsed = [], _parsed_whole(monkeypatch)
    in_family = certificates._in_family

    def spy(*args):
        checks.append(in_family(*args))
        return checks[-1]

    monkeypatch.setattr(certificates, "_in_family", spy)
    monkeypatch.setattr(certificates, "_CHUNK", chunk)
    assert load_certificates(path) == certs
    assert len(checks) == len(certs) - 1 and None not in checks
    assert parsed == [0]


@pytest.mark.parametrize("late_error", [False, True], ids=["loads", "late-syntax-error"])
def test_file_load_holds_neither_the_text_nor_its_parse(tmp_path, monkeypatch, certs, late_error):
    """Nor does a load that fails near the file's end, although its error
    reads the file again to place json's message."""
    text = dumps_certificates(certs)
    expected = None
    if late_error:
        at = text.rindex("\n", 0, len(text) - 100)  # between two tokens
        text = text[:at] + "@" + text[at:]
        with pytest.raises(json.JSONDecodeError) as parsed:
            json.loads(text)
        expected = f"not valid JSON: {parsed.value}"
    path = tmp_path / "certs.json"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(certificates, "_CHUNK", 4096)
    error = None
    tracemalloc.start()
    try:
        try:
            load_certificates(path)
        except SchemaError as exc:
            error = str(exc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert error == expected
    assert peak < path.stat().st_size / 2


@pytest.mark.parametrize("spelling", ["indent-1", "alternating"])
def test_a_load_holds_a_family_once_per_value_of_its_ints(tmp_path, monkeypatch, certs, spelling):
    """Every certificate is parsed whole at indent 1; as written, with noted
    and plain certificates alternating, the first of each family is, and
    each later one is answered by its family's text.  json gives each
    parsed int past 256 an object of its own, yet a family's text is held
    once per value, so the load still holds neither the text nor its
    parse."""
    wide = [dataclasses.replace(c, u=1000) for c in certs]
    if spelling == "indent-1":
        text = json.dumps(json.loads(dumps_certificates(wide)), indent=1)
    else:
        wide = [_noted(c) if i % 2 else c for i, c in enumerate(wide)]
        text = dumps_certificates(wide)
    path = tmp_path / "certs.json"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(certificates, "_CHUNK", 4096)
    parsed = _parsed_whole(monkeypatch)
    tracemalloc.start()
    try:
        loaded = load_certificates(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == wide
    assert parsed == (list(range(len(wide))) if spelling == "indent-1" else [0, 1])
    assert peak < path.stat().st_size / 2


# an error in the text, met before the load has read the file to its end
_EARLIER_ERRORS = {
    "syntax-error-at-the-start": lambda text: "@" + text,
    "repeated-file-key": lambda text: text.replace('{\n  "version": "1",', '{\n  "version": "1",\n  "version": "1",', 1),
    "repeated-certificate-key": lambda text: text.replace('"k": 3,', '"k": 3,\n      "k": 3,', 1),
    "trailing-text": lambda text: text + "@",
    "failing-first-certificate": lambda text: text.replace('"k": 3,', '"k": "3",', 1),
    "version-2": lambda text: text.replace('"version": "1"', '"version": "2"', 1),
}


@pytest.mark.parametrize("doctor", _EARLIER_ERRORS.values(), ids=_EARLIER_ERRORS)
def test_an_undecodable_byte_is_the_error_of_a_whole_read(tmp_path, monkeypatch, certs, doctor):
    """A byte the text codec refuses comes before any error in the text, at
    its offset in the whole file, although the load reads in pieces and
    meets the text's error first."""
    text = doctor(dumps_certificates(certs[:3]))
    with pytest.raises(SchemaError):
        loads_certificates(text)
    path = tmp_path / "certs.json"
    # the byte lies past the file buffer that holds the text's error
    path.write_bytes(text.encode() + b" " * 16384 + b"\xff\n")
    monkeypatch.setattr(certificates, "_CHUNK", 64)
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_text(encoding="utf-8")
    with pytest.raises(UnicodeDecodeError) as caught:
        load_certificates(path)
    assert str(caught.value) == str(whole.value)


def _whole_read_error(data):
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    return whole.value


def _cut_before_the_byte(char, cut):
    """A character whose first cut bytes end the read before the one that
    holds a \xff after it, 64 bytes to a read."""
    def doctor(body):
        boundary = len(body) // 2 // 64 * 64
        return body[:boundary - cut] + char.encode() + b" \xff" + body[boundary:]
    return doctor


# bytes a whole read refuses, put into a certificate file's (ASCII) text
_UNDECODABLE = {
    "euro-cut-1-2": _cut_before_the_byte("\u20ac", 1),
    "euro-cut-2-1": _cut_before_the_byte("\u20ac", 2),
    "astral-cut-3-1": _cut_before_the_byte("\U0001d53c", 3),
    "truncated-at-the-end": lambda body: body + "\u20ac".encode()[:2],
    "invalid-continuation": lambda body: body[:-100] + b"\xe2\x82A" + body[-100:],
    "invalid-continuation-1": lambda body: body[:-100] + b"\xc3A" + body[-100:],
}


@pytest.mark.parametrize("doctor", _UNDECODABLE.values(), ids=_UNDECODABLE)
def test_an_undecodable_sequence_is_placed_as_a_whole_read_places_it(tmp_path, monkeypatch, certs, doctor):
    """The load's error is a whole read's, in its message, start and end,
    although it reads the bytes again 64 at a time and holds only the bytes
    refused."""
    data = doctor(dumps_certificates(certs[:3]).encode())
    path = tmp_path / "certs.json"
    path.write_bytes(data)
    whole = _whole_read_error(data)
    monkeypatch.setattr(certificates, "_CHUNK", 64)
    with pytest.raises(UnicodeDecodeError) as caught:
        load_certificates(path)
    assert str(caught.value) == str(whole)
    assert (caught.value.start, caught.value.end, caught.value.reason) == (whole.start, whole.end, whole.reason)
    assert caught.value.object == whole.object[whole.start:whole.end]


def test_an_undecodable_byte_near_the_end_holds_no_whole_file(tmp_path, monkeypatch, certs, capsys):
    """A \xff 100 bytes before the end of a file of a few MB: the load's
    tracemalloc peak stays under half the file, and verify prints a whole
    read's message and exits 2."""
    data = dumps_certificates([*certs, *certs, *certs]).encode()
    data = data[:-100] + b"\xff" + data[-100:]
    path = tmp_path / "certs.json"
    path.write_bytes(data)
    message = str(_whole_read_error(data))
    assert message == f"'utf-8' codec can't decode byte 0xff in position {len(data) - 101}: invalid start byte"
    monkeypatch.setattr(certificates, "_CHUNK", 4096)
    tracemalloc.start()
    try:
        with pytest.raises(UnicodeDecodeError) as caught:
            load_certificates(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(caught.value) == message
    assert len(data) > 3_000_000 and peak < len(data) / 2
    assert run(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_late_tampers_at_repeated_members_tails_fail_verify(tmp_path, certs):
    """The file's last four certificates, each edited where a copy of a
    repeated member ends: its report's notes, its report's c3, its
    polarization's xi and its m-class's last coefficient.  Each differs
    from the copy before it only there, and verify reports each."""
    text = dumps_certificates(certs)
    cut = [len(text)]
    for _ in range(4):
        cut.insert(0, text.rindex('\n    {\n      "version"', 0, cut[0]))
    tampers = [
        ('"report": {', '"notes": []', '"notes": ["x"]'),
        ('"report": {', '"c3": "12"', '"c3": "13"'),
        ('"hprime": {', '"xi": 168', '"xi": 169'),
        ('"m_class": {', '"0"\n        ]', '"1"\n        ]'),
    ]
    parts = []
    for (member, old, new), start, end in zip(tampers, cut, cut[1:]):
        part = text[start:end]
        at = part.index(old, part.index(member))
        parts.append(part[:at] + new + part[at + len(old):])
    path = tmp_path / "tampered.json"
    path.write_text(text[:cut[0]] + "".join(parts))
    shown = io.StringIO()
    with redirect_stdout(shown):
        assert run(["verify", str(path)]) == 1
    lines = shown.getvalue().splitlines()
    n = len(certs)
    tag = "(k2=3, k3=6, u=-3, x=5)"
    assert [line for line in lines if not line.startswith("ok   ")] == [
        f"FAIL certificate {n - 4} {tag}: stored constraint report disagrees with recomputation"
        ' at notes: stored ("x"), recomputed ()',
        f"FAIL certificate {n - 3} {tag}: stored constraint report disagrees with recomputation"
        " at c3: stored 13, recomputed 12",
        f"FAIL certificate {n - 2} {tag}: polarization is not certified ample"
        " in the (f', e1', xi') frame",
        f"FAIL certificate {n - 1} {tag}: stored m-space class fails the m-space check",
        f"{n - 4}/{n} certificate(s) verified",
    ]
    assert len(lines) == n + 1


def test_a_note_tampered_to_the_empty_string_reads_apart_from_none(certs):
    """The report's notes [] -> [""]: the message quotes the stored string,
    so its two values do not read alike."""
    text = dumps_certificates(certs[:1])
    at = text.index('"notes": []', text.index('"report": {'))
    tampered, = loads_certificates(text[:at] + '"notes": [""]' + text[at + len('"notes": []'):])
    with pytest.raises(TamperError) as exc:
        verify_certificate(tampered)
    assert str(exc.value) == (
        'stored constraint report disagrees with recomputation at notes: stored (""), recomputed ()')


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


def test_rejects_a_stored_k_of_zero(certs):
    """k must equal the row's k, which is positive, so k = 0 fails to load."""
    obj = certificate_to_dict(certs[0])
    obj["k"] = 0
    with pytest.raises(SchemaError, match="disagrees with the table row"):
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


def _oracle_value(value, key=None):
    """The JSON value of a certificate field, read off the dataclasses
    directly rather than through the codec's table."""
    if key == "hprime":
        return dict(zip(("f", "e1", "xi"), value))
    if key == "detail":
        return dict(value)
    if isinstance(value, DivisorClass):
        return {"surface": value.surface.value, "coeffs": [str(c) for c in value.coeffs]}
    if isinstance(value, Fraction):
        return str(value)
    if dataclasses.is_dataclass(value):
        return {
            f.name: _oracle_value(getattr(value, f.name), f.name)
            for f in dataclasses.fields(value)
            if not (f.default is None and getattr(value, f.name) is None)
        }
    if isinstance(value, (tuple, list)):
        return [_oracle_value(v) for v in value]
    return value


def _oracle_payload(cert):
    return {"version": "1", "basis_convention": BASIS_CONVENTION, **_oracle_value(cert)}


def _oracle_dumps(certs):
    """The reference spelling: the json module's indent-2 encoder."""
    if len(certs) == 1:
        payload = _oracle_payload(certs[0])
    else:
        payload = {"version": "1", "certificates": [_oracle_payload(c) for c in certs]}
    return json.dumps(payload, indent=2) + "\n"


def _oracle_rational(text):
    """The reference reading: Fraction's parser plus a canonical round trip.
    No canonical spelling has an exponent, and Fraction("1e99999999") would
    build a 10**99999999 first, so such text is refused before parsing."""
    if "e" in text or "E" in text:
        return None
    try:
        value = Fraction(text)
        canonical = str(value)
    # str() raises ValueError past the int-string digit limit ("1e5000")
    except (ValueError, ZeroDivisionError):
        return None
    return value if canonical == text else None


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


def test_certificate_to_dict_is_the_oracle_payload(certs):
    for cert in [*certs[:3], _fractional(certs[0]), _noted(certs[1])]:
        assert certificate_to_dict(cert) == _oracle_payload(cert)


# === objects shared within one file ===


def _round_trips(case):
    """The written text is the oracle's, loads back to case and saves back
    byte for byte."""
    text = dumps_certificates(case)
    assert text == _oracle_dumps(case)
    loaded = loads_certificates(text)
    assert loaded == list(case)
    assert dumps_certificates(loaded) == text
    return loaded


@pytest.fixture(scope="module")
def pool(certs):
    """Certificates whose reports, rows, classes and notes recur by identity."""
    return [
        *certs[:3],
        *certs[-2:],
        _fractional(certs[0]),
        _noted(certs[1]),
        _noted(_fractional(certs[2])),
        dataclasses.replace(certs[3], z=None),
        *certs[4:13:4],  # certs[0]'s family, which solve interleaves with three others
    ]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dumps_with_repeats_matches_json_indent2(pool, data):
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))
    _round_trips([pool[i] for i in picks])


def test_one_class_at_three_indentations(certs):
    cert = certs[0]
    shared = cert.params.l2
    entries = tuple(
        dataclasses.replace(e, residual=shared) if e.name == "C1" else e
        for e in cert.report.entries
    )
    odd = dataclasses.replace(
        cert,
        m_class=shared,
        params=dataclasses.replace(cert.params, l2=shared),
        report=dataclasses.replace(cert.report, entries=entries),
    )
    assert odd.m_class is odd.params.l2 is odd.report.entry("C1").residual
    for case in ([odd], [odd, cert, odd], [cert, odd]):
        _round_trips(case)


def test_hprime_lists_render_their_own_values(certs):
    """A list hprime is stored as its tuple; each certificate's, one value
    per certificate, is written with its own values."""
    case = [dataclasses.replace(c, hprime=[i, 2 * i + 1, -i]) for i, c in enumerate(certs[:8])]
    text = dumps_certificates(case)
    assert text == _oracle_dumps(case)
    loaded = loads_certificates(text)
    assert [c.hprime for c in loaded] == [tuple(c.hprime) for c in case]
    assert dumps_certificates(loaded) == text


def test_render_memo_holds_what_it_keys():
    """A declaration whose read builds a fresh class per value: each class
    is freed after its text is keyed unless the memo holds it, and a later
    class could then reuse its id and its text."""
    fresh = certificates._Object(
        ("d",), (certificates._DIVISOR,), lambda n: (DivisorClass(Surface.B, [n] * 10),), None
    )
    values = list(range(40))
    text = certificates._dumps(certificates._Array(fresh), values)
    expected = [{"d": divisor_to_json(DivisorClass(Surface.B, [n] * 10))} for n in values]
    assert text == json.dumps(expected, indent=2)


def test_each_shared_array_is_rendered_once_per_value(monkeypatch, certs):
    """A spy on each shared array's text function, built as each
    declaration's cached functions are built afresh: a dump of the box
    renders each distinct a2, a3 and notes object once, in the order first
    written, not once per certificate; a second dump renders them again."""
    rendered = {}
    memoized = certificates._memoized

    def spy(text):
        if not text.__qualname__.startswith("_Array."):
            return memoized(text)

        def counted(values, memo):
            rendered.setdefault(counted, []).append(values)
            return text(values, memo)
        return memoized(counted)

    monkeypatch.setattr(certificates, "_memoized", spy)
    for kind in vars(certificates).values():
        if isinstance(kind, certificates._Object):
            monkeypatch.setattr(kind, "functions", {})
    for calls in (1, 2):
        assert dumps_certificates(certs) == _oracle_dumps(certs)
        # the members in the order written: params.a2, params.a3, report.notes, notes
        a2, a3, report_notes, notes = rendered.values()
        for values, get in ((a2, attrgetter("params.a2")), (a3, attrgetter("params.a3")),
                            (report_notes, attrgetter("report.notes")), (notes, attrgetter("notes"))):
            assert [id(v) for v in values] == calls * [*{id(get(c)): None for c in certs}]
        assert [len(a2), len(a3), len(notes)] == [2 * calls, 4 * calls, calls]


def test_render_memo_lives_for_one_call(certs):
    report = dataclasses.replace(certs[0].report)
    case = [dataclasses.replace(c, report=report) for c in certs[:3]]
    before = dumps_certificates(case)
    object.__setattr__(report, "c3", report.c3 + 1)
    after = dumps_certificates(case)
    assert after != before
    assert after == _oracle_dumps(case)
    assert dumps_certificates(case[:1]) == _oracle_dumps(case[:1])


# === the writer's family memo: a certificate's text around params ===


def _family(cert):
    """The identities of the nine values a certificate writes around params."""
    return tuple(map(id, attrgetter("row", "k", "u", "x", "z", "m_class", "hprime", "report", "notes")(cert)))


def test_each_family_is_filled_once_around_params(monkeypatch, certs):
    """solve emits its families interleaved, shapes varying fastest; a dump
    writes all of a certificate's members for the first of each family
    only, and every other certificate writes just its params."""
    families = [*map(_family, certs)]
    assert len(set(families)) == 4 and all(a != b for a, b in zip(families, families[1:]))
    first = {}
    for family, cert in zip(families, certs):
        first.setdefault(family, cert)
    filled = []
    members = certificates._Object.members

    def spy(kind, newline):
        written = members(kind, newline)

        def counted(value, memo):
            if isinstance(value, SolutionCertificate):
                filled.append(value)
            return written(value, memo)
        return counted

    monkeypatch.setattr(certificates._Object, "members", spy)
    monkeypatch.setattr(certificates._CERTIFICATE, "functions", {})
    for calls in (1, 2):  # the memo lives for one call
        assert dumps_certificates(certs) == _oracle_dumps(certs)
        assert filled == calls * [*first.values()]
    _round_trips(certs)


def _with(cert, **values):
    """A copy of cert with values set as they are, unchecked."""
    cert = copy.copy(cert)
    for name, value in values.items():
        object.__setattr__(cert, name, value)
    return cert


# per value keyed around params, another object equal to the one certs[0] and certs[4] share
_TWINS = {
    "row": dataclasses.replace,
    "m_class": copy.deepcopy,
    "hprime": lambda hprime: tuple([*hprime]),
    "report": dataclasses.replace,
}


@pytest.mark.parametrize("field", _TWINS)
def test_an_equal_copy_of_a_keyed_value_is_written_in_its_family(certs, field):
    """A family member holding an equal copy of a shared value, between
    two holding the value itself, is written as the oracle writes it."""
    first, second, third = certs[0], certs[4], certs[8]
    twin = _TWINS[field](getattr(second, field))
    assert twin == getattr(second, field) and twin is not getattr(second, field)
    case = [first, _with(second, **{field: twin}), third, second]
    assert _family(case[1]) != _family(second) and _family(first) == _family(second) == _family(third)
    _round_trips(case)


@pytest.mark.parametrize("field", ["k", "u", "x", "z", "notes"])
def test_equal_scalars_of_other_objects_are_each_written_as_themselves(certs, field):
    """True == 1 and hashes alike, and two equal notes tuples are two
    objects: a family keyed by identity writes true where a member holds
    True and 1 where the others hold 1, and each notes tuple as it is."""
    if field == "notes":
        one, other = tuple(["100% %s"]), tuple(["100% %s"])
    else:
        one, other = 1, True
    case = [_with(c, **{field: value}) for c, value in zip(certs[0:13:4], (one, other, one, other))]
    text = dumps_certificates(case)
    assert text == _oracle_dumps(case)
    if field != "notes":
        assert text.count(f'"{field}": true') == 2 and text.count(f'"{field}": 1,') == 2


def test_z_null_and_z_set_in_one_call(certs):
    case = [c if i % 2 else dataclasses.replace(c, z=None) for i, c in enumerate(certs[:16])]
    assert _oracle_dumps(case).count('"z": null') == 8
    _round_trips(case)


def test_a_percent_in_a_note_survives_the_family_pieces(certs):
    """A note is written into the text around params, which the writer
    holds per family: its "%" and "%s" are written as they are."""
    notes = ("100% of %s, %%d and %(k)s", "%")
    report = dataclasses.replace(certs[0].report, notes=notes)
    case = [dataclasses.replace(c, notes=notes, report=report) for c in certs[0:13:4]]
    case.insert(2, certs[1])
    _round_trips(case)
    assert dumps_certificates(case).count('"100% of %s, %%d and %(k)s"') == 8


def test_a_hot_family_does_not_answer_for_a_replaced_report(certs):
    """certs[8] with its report replaced by one that differs, after two of
    its family have been written: its own report is written."""
    replaced = dataclasses.replace(certs[8], report=dataclasses.replace(certs[8].report, c3=Fraction(13)))
    case = [certs[0], certs[4], replaced, certs[12]]
    text = dumps_certificates(case)
    assert text.count('"c3": "13"') == 1
    _round_trips(case)


# === the object writer: one text per member ===


def test_an_object_writes_its_constant_text_as_json_writes_it():
    """Keys and head values holding %, braces, a quote and a non-ASCII
    character, at two indentations, and a % in a written value."""
    odd = '%s %% {0} }{ "q" caf\u00e9 \u03b6'
    obj = certificates._Object(
        (odd, "n", "m"), (certificates._INT, certificates._STRS, certificates._INT), lambda v: v, None,
        head={"%": odd, odd + "{": "100%"},
    )
    value = (7, ("x%sy", odd), -1)
    payload = {"%": odd, odd + "{": "100%", odd: 7, "n": ["x%sy", odd], "m": -1}
    assert certificates._dumps(obj, value) == json.dumps(payload, indent=2)
    assert certificates._dumps(certificates._Array(obj), [value, value]) == json.dumps(
        [payload, payload], indent=2)


def test_entries_in_every_presence_pattern(certs):
    """value, residual and detail each left out or written: the eight
    presence patterns of an entry in one report."""
    cert = certs[0]
    entries = tuple(
        ConstraintEntry(
            f"E{i}", bool(i % 3),
            value=Fraction(i, 3) if i & 1 else None,
            residual=cert.params.l3 if i & 2 else None,
            detail=(("a", True), ("b", False)) if i & 4 else None,
        )
        for i in range(8)
    )
    case = [dataclasses.replace(cert, report=dataclasses.replace(cert.report, entries=entries))]
    _round_trips(case)
    _round_trips([*case, certs[1], *case])


def test_a_detail_repeating_a_name_is_written_as_its_dict(certs):
    """A detail is written as json.dumps writes dict(detail): a repeated
    name once, at its first position, with its last verdict."""
    detail = (("a", True), ("b", False), ("a", False))
    entry = ConstraintEntry("E", True, detail=detail)
    cert = dataclasses.replace(certs[0], report=dataclasses.replace(certs[0].report, entries=(entry,)))
    text = dumps_certificates([cert])
    assert text == _oracle_dumps([cert])
    assert '"detail": {\n          "a": false,\n          "b": false\n        }' in text
    assert text.count('"a": ') == 1


def test_true_in_an_int_slot_is_written_true(certs):
    cert = copy.copy(certs[0])
    object.__setattr__(cert, "u", True)
    object.__setattr__(cert, "hprime", (True, False, 1))
    text = dumps_certificates([cert])
    assert text == _oracle_dumps([cert])
    assert '"u": true' in text and '"f": true' in text


@pytest.mark.parametrize("bad", [[1], {"a": 1}, 1.5, Fraction(1, 2)], ids=type)
@pytest.mark.parametrize("where", ["u", "z", "hprime", "params.a2", "notes"])
def test_a_nested_or_unknown_value_in_a_scalar_slot_is_a_type_error(certs, where, bad):
    """Where the loader takes a scalar, the writer refuses a list, dict,
    float or Fraction, with json's message for an unknown type."""
    cert = copy.copy(certs[0])
    if where == "params.a2":
        params = copy.copy(cert.params)
        object.__setattr__(params, "a2", (0, bad))
        object.__setattr__(cert, "params", params)
    else:
        object.__setattr__(cert, where, {"hprime": (1, bad, 2), "notes": ("x", bad)}.get(where, bad))
    message = f"^Object of type {type(bad).__name__} is not JSON serializable$"
    for case in ([cert], [certs[1], cert]):
        with pytest.raises(TypeError, match=message):
            dumps_certificates(case)


def _cached_functions():
    """Each declaration's cached text functions, by its name and newline."""
    return {(name, newline): text for name, kind in vars(certificates).items()
            if isinstance(kind, certificates._Object) for newline, text in kind.functions.items()}


def test_no_cached_function_holds_a_value_after_a_dump(monkeypatch, certs):
    """Each declaration's text function per indentation outlives a dump,
    and is built from the table alone: once a dump returns, the
    certificates it wrote and their members are freed while the functions
    stay, and a file or one certificate dumped again adds no function to
    those of its first dump."""
    def fresh(cert):
        entries = tuple(map(dataclasses.replace, cert.report.entries))
        report = dataclasses.replace(cert.report, entries=entries)
        return dataclasses.replace(cert, row=dataclasses.replace(cert.row),
                                   params=dataclasses.replace(cert.params), report=report)

    for kind in vars(certificates).values():
        if isinstance(kind, certificates._Object):
            monkeypatch.setattr(kind, "functions", {})
    case = [fresh(c) for c in certs[:3]]
    refs = [weakref.ref(obj) for c in case for obj in (c, c.row, c.params, c.report, *c.report.entries)]
    for written in (case, case[:1]):
        assert dumps_certificates(written) == _oracle_dumps(written)
        cached = _cached_functions()
        assert ("_CERTIFICATE", "\n" if len(written) == 1 else "\n    ") in cached
        for _ in range(2):
            assert dumps_certificates(written) == _oracle_dumps(written)
            assert _cached_functions() == cached
    del case, written
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
    assert _cached_functions() == cached


def test_the_file_array_puts_one_certificate_at_a_time(certs):
    """The writer streams: a file's sink gets at least a piece per
    certificate, none longer than a certificate's text."""
    pieces = []
    certificates._write_certificates(certs, pieces.append)
    assert "".join(pieces) == dumps_certificates(certs)
    assert len(pieces) >= len(certs)
    assert max(map(len, pieces)) < 8192


def test_the_search_box_file_is_pinned(certs):
    """solve(3, 6) on the quick box, the benchmark's search box: the file's
    size and sha256, and a load that dumps back to the same text, from the
    writer's spelling or another: the whole file at indent 1, or its
    certificates at no indent and indent 1 in turn."""
    text = dumps_certificates(certs)
    assert len(text.encode()) == 1_236_283
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "43556b04eefb973e40d4eb80a16d3af3d16fb1864117ac94b64de7c9a8936e28")
    for spelling in (text, json.dumps(json.loads(text), indent=1), _spaced(certs, (None, 1))):
        assert dumps_certificates(loads_certificates(spelling)) == text


def _same_report_pair(certs):
    first = certs[0]
    second = next(c for c in certs[1:] if c.report is first.report)
    return [first, second]


def _spaced(certs, indents):
    """A file of certs, certificate i dumped by json.dumps at indent
    indents[i % len(indents)]: its members' texts differ from those of a
    certificate at another indent."""
    items = [json.dumps(certificate_to_dict(c), indent=indents[i % len(indents)])
             for i, c in enumerate(certs)]
    return '{"version": "1", "certificates": [' + ", ".join(items) + "]}"


def test_loaded_file_shares_what_solve_shares(monkeypatch, certs):
    """Each shared member is one object per value, whether the text around
    params of a certificate parsed whole before answered for it or the
    marshal memo did (a certificate parsed whole); the multiplicity lists
    and notes are one object per value.  As written, only the first
    certificate of each family text is parsed whole; spelled at other
    indents, each one is.  On the box every notes is (), which CPython
    holds once, so notes are checked on certificates with notes of their
    own."""
    parsed = _parsed_whole(monkeypatch)
    # as written, every certificate spelled otherwise, and a mix
    for indents in ((2,), (None, 1), (None, 1, 1)):
        parsed.clear()
        text = dumps_certificates(certs) if indents == (2,) else _spaced(certs, indents)
        loaded = loads_certificates(text)
        assert loaded == certs
        assert parsed == (_family_changes(text, len(certs)) if indents == (2,) else [*range(len(certs))])
        # a class is one object wherever it occurs, so its three places share one table
        for attrs in (["report"], ["row"], ["hprime"], ["m_class", "params.l2", "params.l3"],
                      ["params.a2", "params.a3"], ["notes"]):
            getters = [attrgetter(a) for a in attrs]
            canonical = {}
            for cert in loaded:
                for get in getters:
                    value = get(cert)
                    assert value is canonical.setdefault(value, value)
            assert len(canonical) == len({get(c) for c in certs for get in getters})
    # notes of their own: as written, at alternate indents, and alternating
    # in pairs with plain certificates, whose family text differs: each
    # pair after the first two is answered by its family's text
    noted = [_noted(c) for c in certs[:8]]
    mixed = [_noted(c) if i // 2 % 2 == 0 else c for i, c in enumerate(certs[:8])]
    for case, text, whole in ((noted, dumps_certificates(noted), [0]),
                              (noted[:6], _spaced(noted[:6], (None, 1)), [*range(6)]),
                              (mixed, dumps_certificates(mixed), [0, 2])):
        parsed.clear()
        loaded = loads_certificates(text)
        assert loaded == case
        assert parsed == whole
        if case is mixed:
            assert whole == _family_changes(text, len(mixed))
        assert len({id(c.notes) for c in loaded if c.notes}) == 1 and loaded[0].notes


def _member_span(text, index, key):
    """The (start, end) in a file's text of the value of key in its
    certificate number index."""
    start = [m.end() for m in re.finditer(f'"{key}": ', text)][index]
    return start, json.JSONDecoder().raw_decode(text, start)[1]


def _pair_text(certs):
    """Two certificates whose two runs are written alike, as a file's text."""
    pair = _same_report_pair(certs)
    assert all(getattr(pair[0], k) is getattr(pair[1], k) for k in _SHARED_MEMBERS)
    text = dumps_certificates(pair)
    first, second = _run_spans(text, 0), _run_spans(text, 1)
    assert all(text[slice(*first[run])] == text[slice(*second[run])] for run in _RUNS)
    return pair, text


@pytest.mark.parametrize(
    "edit, cut", [("", 1), (" ", 0), ("@", 1), ("}", 0), (",", 0), ("{", 0), ("0", 1), ("\f", 0)])
@pytest.mark.parametrize("where", ["first-byte", "last-byte", "past-the-end"])
@pytest.mark.parametrize("key", [*_RUNS, *_SHARED_MEMBERS])
def test_an_edit_at_a_repeated_members_edge_loads_as_the_whole_text(certs, key, where, edit, cut):
    """The loader compares a certificate's runs with the written text of
    the one before: an edit where a run starts or ends, or just past it, or
    at the edges of a shared member within it, loads as the whole text's
    parse would."""
    pair, text = _pair_text(certs)
    start, end = _run_spans(text, 1)[key] if key in _RUNS else _member_span(text, 1, key)
    at = {"first-byte": start, "last-byte": end - 1, "past-the-end": end}[where]
    loaded = _loads_as_the_whole_text(text[:at] + edit + text[at + cut:])
    if loaded is not None and loaded == pair:
        for name in _RUNS.get(key, (key,)):
            assert getattr(loaded[1], name, None) is getattr(loaded[0], name, None)


def _without_params(text):
    start, end = _member_span(text, 1, "params")
    return text[:text.rindex(",", 0, start)] + text[end:]


def _extra_after_notes(text):
    end = _run_spans(text, 1)["after"][1] - len("\n    }")
    return text[:end] + ',\n      "extra": 1' + text[end:]


def _repeated_after_params(key):
    def doctor(text):
        start, end = _member_span(text, 1, key)
        value = text[start:end]
        at = _member_span(text, 1, "params")[1]
        return text[:at] + f',\n      "{key}": {value}' + text[at:]
    return doctor


def _repeated_before_params(key):
    def doctor(text):
        start, end = _member_span(text, 1, key)
        value = text[start:end]
        at = text.index('"params": ', text.rindex('"version": '))
        return text[:at] + f'"{key}": {value},\n      ' + text[at:]
    return doctor


@pytest.mark.parametrize(
    "doctor, message",
    [
        (_without_params, r"^certificates\[1\]: missing field 'params'$"),
        (_extra_after_notes, r"^certificates\[1\]: unknown field 'extra'$"),
        (_repeated_after_params("u"), r"^certificates\[1\]: duplicate key 'u'$"),
        (_repeated_after_params("m_class"), r"^certificates\[1\]: duplicate key 'm_class'$"),
        # the run after params is the first one's text, but its hprime came before
        (_repeated_before_params("hprime"), r"^certificates\[1\]: duplicate key 'hprime'$"),
        (_repeated_before_params("notes"), r"^certificates\[1\]: duplicate key 'notes'$"),
    ],
    ids=["no-params", "extra-after-notes", "u-after-params", "m_class-after-params",
         "hprime-before-params", "notes-before-params"],
)
def test_a_certificate_off_the_runs_layout_loads_as_the_whole_text(certs, doctor, message):
    """A second certificate whose first run repeats the first one's, but
    with no params, a member after notes, or a key of either run repeated
    next to params: each fails as the whole text's parse does."""
    _, text = _pair_text(certs)
    doctored = doctor(text)
    assert doctored.startswith(text[:_run_spans(text, 1)["before"][1]])
    with pytest.raises(SchemaError, match=message):
        _whole_text_load(doctored)
    assert _loads_as_the_whole_text(doctored) is None


@pytest.mark.parametrize("spelling", ["\\u0072ow", "r\\u006fw", "row\\u0000", "row\t", "\\u0076ersion"])
@pytest.mark.parametrize("member", ["version", "row"])
def test_a_member_key_json_reads_otherwise_loads_as_the_whole_text(certs, member, spelling):
    """A key with an escape or a control character, first in its
    certificate or not, is read by json, not matched as it is written."""
    text = dumps_certificates(_same_report_pair(certs))
    at = text.index(f'"{member}": ', text.rindex("\n    {\n"))
    _loads_as_the_whole_text(text[:at] + f'"{spelling}"' + text[at + len(member) + 2:])


@pytest.mark.parametrize("key", _SHARED_MEMBERS)
@pytest.mark.parametrize("spacing", [{"indent": 4}, {"indent": None}, {"separators": (",", ":")}])
def test_a_repeated_member_spelled_otherwise_is_the_same_object(certs, key, spacing):
    pair = _same_report_pair(certs)
    text = dumps_certificates(pair)
    start, end = _member_span(text, 1, key)
    respaced = json.dumps(json.loads(text[start:end]), **spacing)
    assert respaced != text[start:end]
    loaded = _loads_as_the_whole_text(text[:start] + respaced + text[end:])
    assert loaded == pair
    for k in _SHARED_MEMBERS:
        assert getattr(loaded[1], k) is getattr(loaded[0], k)


def test_a_report_differing_in_one_entry_is_its_own_object(certs):
    first, second = _same_report_pair(certs)
    entries = tuple(
        dataclasses.replace(e, value=e.value + 1) if e.name == "S_s" else e
        for e in second.report.entries
    )
    doctored = dataclasses.replace(second, report=dataclasses.replace(second.report, entries=entries))
    loaded = _round_trips([first, doctored, first])
    assert loaded[0].report is loaded[2].report
    assert loaded[1].report is not loaded[0].report
    assert verify_certificate(loaded[0]).all_pass
    with pytest.raises(TamperError):
        verify_certificate(loaded[1])


def _second_report_extra_key(text, where):
    obj = json.loads(text)
    target = obj["certificates"][1]["report"]
    for step in where:
        target = target[step]
    target["extra"] = True
    return json.dumps(obj, indent=2)


def _second_report_repeated_c3(text):
    lines = text.split("\n")
    second = [i for i, line in enumerate(lines) if line.lstrip().startswith('"c3": ')][1]
    lines.insert(second, lines[second])
    return "\n".join(lines)


@pytest.mark.parametrize(
    "doctor, message",
    [
        (lambda t: _second_report_extra_key(t, ()),
         r"^certificates\[1\]\.report: unknown field 'extra'$"),
        (lambda t: _second_report_extra_key(t, ("entries", 0)),
         r"^certificates\[1\]\.report\.entries\[0\]: unknown field 'extra'$"),
        (_second_report_repeated_c3, r"^certificates\[1\]\.report: duplicate key 'c3'$"),
    ],
    ids=["unknown", "unknown-in-entry", "duplicate"],
)
def test_second_copy_of_a_shared_report_is_checked(certs, doctor, message):
    text = dumps_certificates(_same_report_pair(certs))
    with pytest.raises(SchemaError, match=message):
        _load_both(doctor(text))


def _second_copy_changed(text, where, value):
    """The two-certificate text with the second certificate's value at the
    key path where replaced."""
    obj = json.loads(text)
    target = obj["certificates"][1]
    for step in where[:-1]:
        target = target[step]
    target[where[-1]] = value(target[where[-1]])
    return json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("report", "nonsplit"), int,
         r"^certificates\[1\]\.report: field 'nonsplit' must be a boolean$"),
        (("hprime", "f"), float, r"^certificates\[1\]\.hprime: field 'f' must be an integer$"),
        (("row", "k2"), float, r"^certificates\[1\]\.row: field 'k2' must be an integer$"),
        (("m_class", "coeffs", 4), int,
         r"^certificates\[1\]\.m_class\.coeffs\[4\]: expected a rational string, got 1$"),
    ],
    ids=["report-bool-as-int", "hprime-int-as-float", "row-int-as-float", "class-str-as-int"],
)
def test_copies_differing_only_in_json_type_stay_apart(certs, where, value, message):
    """json.loads gives 1 == True == 1.0, and str(1) is "1": a copy equal to
    the first under either must still be checked on its own."""
    pair = _same_report_pair(certs)
    assert pair[0].m_class is pair[1].m_class
    text = _second_copy_changed(dumps_certificates(pair), where, value)
    first = _node(json.loads(text)["certificates"][0], where)
    changed = _node(json.loads(text)["certificates"][1], where)
    assert changed == first or str(changed) == first
    with pytest.raises(SchemaError, match=message):
        _load_both(text)


def _keys_reversed(value):
    """Every object's keys in reverse order, but a detail's, whose order is its value."""
    if isinstance(value, dict):
        return {k: value[k] if k == "detail" else _keys_reversed(value[k]) for k in reversed(value)}
    if isinstance(value, list):
        return [_keys_reversed(item) for item in value]
    return value


def test_a_copy_with_its_keys_in_another_order_loads_equal(certs):
    pair = _same_report_pair(certs)
    shared = ("row", "hprime", "report", "m_class")
    obj = json.loads(dumps_certificates(pair))
    second = obj["certificates"][1]
    for key in shared:  # a shared object's own keys reversed: the first copy's object
        second[key] = dict(reversed(second[key].items()))
    assert list(second["report"]) == list(reversed(obj["certificates"][0]["report"]))
    loaded = loads_certificates(json.dumps(obj, indent=2))
    assert loaded == pair
    for key in shared:
        assert getattr(loaded[1], key) is getattr(loaded[0], key)
    # every object's keys reversed: equal, but the report's entries are other values
    obj = json.loads(dumps_certificates(pair))
    obj["certificates"][1] = _keys_reversed(obj["certificates"][1])
    loaded = loads_certificates(json.dumps(obj, indent=2))
    assert loaded == pair
    assert loaded[0].report is not loaded[1].report
    assert loaded[0].row is loaded[1].row and loaded[0].m_class is loaded[1].m_class
    # a detail's order is its value: reversed in one entry, it is another report
    obj = json.loads(dumps_certificates(pair))
    entry = next(e for e in obj["certificates"][1]["report"]["entries"] if len(e.get("detail", ())) > 1)
    entry["detail"] = dict(reversed(entry["detail"].items()))
    loaded = loads_certificates(json.dumps(obj, indent=2))
    assert loaded[1].report is not loaded[0].report
    assert loaded[1].report.entry(entry["name"]).detail == tuple(reversed(
        pair[1].report.entry(entry["name"]).detail))


def test_class_copies_share_one_object_only_when_exactly_equal():
    memo = {}
    digits = [str(n % 10) for n in range(1, RANK + 1)]
    first = certificates._DIVISOR.load({"surface": "B", "coeffs": digits}, memo)
    reordered = certificates._DIVISOR.load({"coeffs": list(digits), "surface": "B"}, memo)
    assert reordered is first
    other_surface = certificates._DIVISOR.load({"surface": "Bprime", "coeffs": digits}, memo)
    assert other_surface is not first and other_surface.surface is Surface.BPRIME
    for alias in (
        {"surface": "B", "coeffs": "".join(digits)},  # its characters are the same strings
        {"surface": "B", "coeffs": [int(c) for c in digits]},
        {"surface": "B", "coeffs": [*digits[:-1], [digits[-1]]]},
        {"surface": "B", "coeffs": digits, "extra": True},
        {"surface": ["B"], "coeffs": digits},
    ):
        with pytest.raises(SchemaError):
            certificates._DIVISOR.load(alias, memo)


def test_copies_share_one_object_only_when_their_values_and_types_are_equal():
    """1, True and 1.0 compare equal but are other JSON values; a copy
    holding one list object twice is equal to one holding two equal lists."""
    any_list = certificates._Scalar("an array", (list,))
    pair = certificates._Object(("a", "b"), (any_list, any_list), None,
                                lambda a, b: (a, b), shared=True)
    memo = {}
    built = [pair.load({"a": value, "b": []}, memo) for value in ([1], [True], [1.0])]
    assert [type(a[0]) for a, _ in built] == [int, bool, float]
    assert len({id(b) for b in built}) == 3
    twice = [1]
    assert pair.load({"a": twice, "b": twice}, memo) is pair.load({"a": [1], "b": [1]}, memo)


def _deepest_parsed(make):
    """The largest n for which loads_json accepts make(n)."""
    lo, hi = 1, 1 << 20
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            loads_json(make(mid))
            lo = mid
        except SchemaError:
            hi = mid
    return lo


def test_a_copy_nested_to_the_parse_limit_is_a_one_line_schema_error(certs):
    """Keying a copy on its text encodes it again, which can overflow the
    stack where parsing it did not."""
    text = _second_copy_changed(dumps_certificates(_same_report_pair(certs)),
                                ("report", "nonsplit"), lambda _: "@")

    def nested(n):
        return text.replace('"@"', "[" * n + "]" * n)

    deepest = _deepest_parsed(nested)
    assert deepest > 50
    for n in range(deepest, deepest - 8, -1):
        with pytest.raises(SchemaError) as exc:
            _load_both(nested(n))
        assert str(exc.value) == "certificates[1].report: field 'nonsplit' must be a boolean"


def test_a_shared_copy_too_deep_to_key_is_checked_on_its_own(certs):
    """A report whose repr overflows the stack is not keyed: the checks
    reject it, with its key path, and no RecursionError escapes."""
    deep = []
    for _ in range(100_000):
        deep = [deep]
    obj = certificate_to_dict(certs[0])
    obj["report"]["notes"] = [deep]
    with pytest.raises(SchemaError) as exc:
        certificate_from_dict(obj)
    assert str(exc.value) == "report.notes[0]: expected a string"


def test_dumps_rejects_what_json_cannot_encode(certs):
    """No JSON value, or a nested value where the loader takes a scalar: a
    detail maps names to booleans, and json.dumps would nest a list or an
    object there, in a file the loader refuses."""
    bad = dataclasses.replace(certs[0], notes=(object(),))
    with pytest.raises(TypeError):
        _oracle_dumps([bad])
    with pytest.raises(TypeError):
        dumps_certificates([bad])
    for value in (["x"], {"x": True}):
        bad = _nested_detail(certs[0], value)
        with pytest.raises(SchemaError, match=r"\.detail: field '.*' must be a boolean$"):
            loads_certificates(_oracle_dumps([bad]))
        with pytest.raises(TypeError):
            dumps_certificates([bad])
    listed_u = copy.copy(certs[0])
    object.__setattr__(listed_u, "u", [certs[0].u])
    for bad in (listed_u, dataclasses.replace(certs[0], notes=(["x"],))):
        with pytest.raises(SchemaError, match=r"field '(u|notes)' must be|notes\[0\]"):
            loads_certificates(_oracle_dumps([bad]))
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
@example("1e5000")
@example("1e-5000")
@example("1e99999999")
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


def test_verify_exits_2_on_a_duplicate_key(tmp_path):
    # json.loads alone keeps the last "u", so this file would verify
    text = GOLDEN.read_text().replace('  "u": -3,', '  "u": 7,\n  "u": -3,', 1)
    assert text.count('"u": ') == 2
    with pytest.raises(SchemaError, match="duplicate key 'u'"):
        _load_both(text)
    path = tmp_path / "duplicate.json"
    path.write_text(text)
    with redirect_stderr(io.StringIO()) as err:
        assert run(["verify", str(path)]) == 2
    assert "duplicate key 'u'" in err.getvalue()


def test_duplicate_key_error_names_its_object(certs):
    text = dumps_certificates(certs[:3])
    second = text.index('"c2_deficit_effective"', text.index('"c2_deficit_effective"') + 1)
    doctored = text[:second] + '"c3": "0",\n' + text[second:]
    with pytest.raises(SchemaError) as exc:
        _load_both(doctored)
    assert str(exc.value) == "certificates[1].report: duplicate key 'c3'"
    # text that is not JSON past the repeat, anywhere in the file, keeps the pathless error
    with pytest.raises(SchemaError) as exc:
        _load_both(doctored + "x")
    assert str(exc.value) == "duplicate key 'c3'"
    # the innermost object repeating a key is named, as json.loads meets them
    with pytest.raises(SchemaError) as exc:
        loads_json('{"a": [1, {"b": 1, "c": {"d": 1, "d": 2}, "b": 2}], "a": 3}')
    assert str(exc.value) == "a[1].c: duplicate key 'd'"
    # text that is not JSON past the repeat keeps the pathless error
    with pytest.raises(SchemaError) as exc:
        loads_json('{"u": 1, "u": 2} x')
    assert str(exc.value) == "duplicate key 'u'"


def test_a_repeat_too_deep_to_locate_keeps_the_pathless_error(monkeypatch):
    """From Python 3.12 json nests deeper than the Python walk that locates
    a repeat can recurse; the error then names no path."""
    def too_deep(value, path=()):
        raise RecursionError

    monkeypatch.setattr(certificates, "_raise_duplicate", too_deep)
    with pytest.raises(SchemaError) as caught:
        _load_both('{"version": "1", "certificates": [{"u": 1, "u": 2}]}')
    assert str(caught.value) == "duplicate key 'u'"


def _first_failing(certs):
    """The text of a file of certs whose first certificate's u is a string."""
    obj = json.loads(dumps_certificates(certs))
    obj["certificates"][0]["u"] = "x"
    return json.dumps(obj, indent=2)


@pytest.mark.parametrize("doctor, message", [
    (lambda text: text, r"^certificates\[0\]: field 'u' must be an integer$"),
    # what json rejects comes first, wherever it is
    (lambda text: text[:text.rindex('"c3": ')] + '"c3": "0",\n' + text[text.rindex('"c3": '):],
     r"^certificates\[1\]\.report: duplicate key 'c3'$"),
    (lambda text: text + "}", r"^not valid JSON: Extra data: line \d+ column \d+ \(char \d+\)$"),
    # then the file object's own keys and version, wherever they are
    (lambda text: json.dumps({"certificates": json.loads(text)["certificates"], "version": "2"}),
     r"^field 'version' has unsupported value '2'$"),
    (lambda text: text.replace('"version": "1",', '"version": "1", "count": 2,', 1),
     r"^unknown field 'count'$"),
], ids=["certificate", "repeat-in-a-later-one", "trailing-text", "version-after-the-array",
        "unknown-file-key"])
def test_load_errors_come_in_the_whole_texts_order(certs, doctor, message):
    """A file whose first certificate fails: an error of the text or of the
    file object comes before it, as if the whole text were parsed first."""
    text = _first_failing(certs[:2])
    with pytest.raises(SchemaError, match=message):
        _load_both(doctor(text))


@pytest.mark.parametrize("number", ["12345678901234", "1" * 20_000 + ".5"], ids=["int", "long-float"])
def test_a_number_cut_between_reads_is_read_whole(number):
    with pytest.raises(SchemaError, match=r"^certificates: expected an array$"):
        _load_both('{"version": "1", "certificates": ' + number + "}")


def _padded(text, at, char):
    """text with char inserted at at, after a run of spaces longer than
    what a load holds, so that the error's line starts in text dropped."""
    return text[:at] + " " * 20_000 + char + text[at:]


@pytest.mark.parametrize("doctor", [
    lambda t: _padded(t, t.index("\n", len(t) // 100), "@"),  # at a line's end: outside a string
    lambda t: _padded(t, t.index("\n", len(t) // 2), "@"),
    lambda t: _padded(t, 1, "@"),
    lambda t: _padded(t, t.index('"version"') + len('"version"'), "@"),
    lambda t: _padded(t, t.index("[") + 1, "@"),
    lambda t: _padded(t, t.index("\n    },") + len("\n    }"), "@"),
    lambda t: _padded(t, t.rindex("}", 0, t.rindex("]")) + 1, ","),
    lambda t: _padded(t, t.rindex("]") + 1, "@"),
], ids=["first-certificate", "middle-certificate", "file-object-start", "after-a-key",
        "first-item", "between-items", "trailing-comma", "after-the-array"])
def test_a_syntax_error_is_placed_as_json_places_it(certs, doctor):
    bad = doctor(dumps_certificates(certs[:3]))
    with pytest.raises(json.JSONDecodeError) as parsed:
        json.loads(bad)
    with pytest.raises(SchemaError) as caught:
        _load_both(bad)
    assert str(caught.value) == f"not valid JSON: {parsed.value}"


def _whole_text_load(text):
    """The reference loader: the whole text parsed first, a repeated key
    located by a second parse with objects as tuples of pairs, then the checks."""
    try:
        payload = json.loads(text, object_pairs_hook=certificates._unique_keys)
    except SchemaError:
        try:
            certificates._raise_duplicate(json.loads(text, object_pairs_hook=tuple))
        except (ValueError, RecursionError):
            pass
        raise
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if isinstance(payload, dict) and "certificates" in payload:
        return certificates._FILE.load(payload, {})
    return [certificate_from_dict(payload)]


def _loads_as_the_whole_text(text):
    """Both entry points give text the certificates or the message that
    parsing its whole text first gives; the certificates, or None."""
    try:
        expected = _whole_text_load(text)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as caught:
            _load_both(text)
        assert str(caught.value) == str(exc)
        return None
    loaded = _load_both(text)
    assert loaded == expected
    return loaded


_GOLDEN_CERTIFICATE = json.loads(GOLDEN.read_text())
_TWO_GOLDEN = json.dumps({"version": "1", "certificates": [_GOLDEN_CERTIFICATE] * 2}, indent=2)
# the middle report differs: the middle copy's run after params is not the
# first copy's, nor the last copy's the middle one's, so both are parsed
# whole, and the marshal memo answers for the last copy's report
_MIDDLE = copy.deepcopy(_GOLDEN_CERTIFICATE)
_MIDDLE["report"]["notes"] = ["the middle copy's own note"]
_THREE_GOLDEN = json.dumps(
    {"version": "1", "certificates": [_GOLDEN_CERTIFICATE, _MIDDLE, _GOLDEN_CERTIFICATE]}, indent=2)
_EDITS = ["", "{", "}", "[", "]", ",", ":", '"', "\\", " ", "\n", "0", "-", ".", "e", "t", "@",
          '"u": 1, ', '"version": "1", ', '"certificates": [], ', "\ufeff", "\\u00e9"]


def _at_repeat_edges(test):
    """Examples that edit a later copy's run, where the loader compares
    texts, or a shared member within it, at its first byte, its last byte
    and just past it."""
    for golden, index, keys in ((_TWO_GOLDEN, 1, _SHARED_MEMBERS), (_THREE_GOLDEN, 1, ("report",)),
                                (_THREE_GOLDEN, 2, _SHARED_MEMBERS)):
        spans = [_member_span(golden, index, key) for key in keys]
        for start, end in [*_run_spans(golden, index).values(), *spans]:
            for at in (start, end - 1, end):
                for edit, cut in ((" ", 0), ("", 1), ("0", 1)):
                    test = example(golden, at, cut, edit)(test)
    return test


@settings(max_examples=300, deadline=None)
@_at_repeat_edges
@given(st.sampled_from([_TWO_GOLDEN, _THREE_GOLDEN]), st.integers(0, len(_THREE_GOLDEN)),
       st.integers(0, 3), st.sampled_from(_EDITS))
def test_load_matches_the_whole_text_load(golden, at, cut, edit):
    """Any edit of a two- or three-certificate file loads to the same
    certificates, or fails with the same message, as parsing its whole text
    first would."""
    at %= len(golden) + 1
    _loads_as_the_whole_text(golden[:at] + edit + golden[at + cut:])


@pytest.mark.parametrize(
    "text", ["[" * 100000, "[" + "1" * 5000 + "]", "\ufeff{}"],
    ids=["deep-nesting", "5000-digit-int", "byte-order-mark"],
)
def test_loads_rejects_pathological_json(text):
    with pytest.raises((ValueError, RecursionError)) as parsed:
        json.loads(text)
    with pytest.raises(SchemaError) as caught:
        _load_both(text)
    assert str(caught.value) == f"not valid JSON: {parsed.value}"


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


# === the format is the dataclasses' fields ===


def _names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def test_written_keys_are_the_dataclass_fields_in_order(certs):
    """At every level the keys are the field names in field order; the only
    others are the head and hprime's frame, and only None entry fields are
    left out."""
    for cert in [certs[0], _fractional(certs[-1]), _noted(certs[0])]:
        obj = certificate_to_dict(cert)
        assert list(obj) == ["version", "basis_convention", *_names(SolutionCertificate)]
        assert list(obj["row"]) == _names(Table1Row)
        assert list(obj["params"]) == _names(BundleParams)
        assert list(obj["hprime"]) == ["f", "e1", "xi"]
        assert list(obj["report"]) == _names(ConstraintReport)
        for written, entry in zip(obj["report"]["entries"], cert.report.entries, strict=True):
            kept = [n for n in _names(ConstraintEntry) if getattr(entry, n) is not None]
            assert list(written) == kept


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


# === errors name the key path ===


def _dotted(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _is_leaf(node):
    return not isinstance(node, (dict, list)) or not node


_GOLDEN_LEAVES = [p for p in _GOLDEN_PATHS if _is_leaf(_node(_GOLDEN_OBJ, p))]
# a value of another JSON type than each leaf's
_WRONG_TYPE = {str: 7, int: "7", bool: "true", list: 7}


@pytest.mark.parametrize("path", _GOLDEN_LEAVES, ids=lambda p: "/".join(map(str, p)))
def test_verify_error_names_the_key_path(tmp_path, path):
    """A wrong-typed leaf in the second certificate of a file ends in exit 2
    and one error line that locates it: a value checked on its own by its
    full path, a field checked in its object by the object's path and the
    field's name."""
    obj = json.loads(GOLDEN.read_text())
    node = _node(obj, path[:-1])
    node[path[-1]] = _WRONG_TYPE[type(node[path[-1]])]
    target = tmp_path / "wrong.json"
    target.write_text(json.dumps({"version": "1", "certificates": [_GOLDEN_OBJ, obj]}))
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        assert run(["verify", str(target)]) == 2
    assert out.getvalue() == ""
    (line,) = err.getvalue().splitlines()
    *where, key = ("certificates", 1, *path)
    if isinstance(key, str) and f"field {key!r}" in line:
        assert line.startswith(f"error: {_dotted(where)}: field {key!r} ")
    else:
        assert line.startswith(f"error: {_dotted((*where, key))}: ")


def test_loader_errors_name_the_key_path():
    cases = [
        (lambda obj: obj["report"]["c2_deficit"].__setitem__(1, "x"),
         "report.c2_deficit[1]: not a canonical rational: 'x'"),
        (lambda obj: obj["params"]["l2"]["coeffs"].__setitem__(3, "2/4"),
         "params.l2.coeffs[3]: non-canonical rational spelling: '2/4'"),
        # a divisor class is an object of the table like any other
        (lambda obj: obj["params"]["l2"].pop("coeffs"), "params.l2: missing field 'coeffs'"),
        (lambda obj: obj["m_class"].update(extra=1), "m_class: unknown field 'extra'"),
        (lambda obj: obj["params"]["l3"].update(surface="A"),
         "params.l3.surface: unknown surface tag 'A'"),
        (lambda obj: obj["params"].update(l2=[]), "params.l2: expected an object"),
    ]
    for doctor, message in cases:
        obj = json.loads(GOLDEN.read_text())
        doctor(obj)
        with pytest.raises(SchemaError) as caught:
            certificate_from_dict(obj)
        assert str(caught.value) == message
    text = json.dumps({"version": "1", "certificates": [_GOLDEN_OBJ, 3]})
    with pytest.raises(SchemaError, match=r"^certificates\[1\]: expected an object$"):
        _load_both(text)


def _second_of_two(doctor):
    """The text of a file whose second certificate is the golden one, doctored."""
    obj = json.loads(GOLDEN.read_text())
    doctor(obj)
    return json.dumps({"version": "1", "certificates": [_GOLDEN_OBJ, obj]})


@pytest.mark.parametrize("doctor, message", [
    (lambda obj: obj["report"]["entries"][6].update(detail=[]),
     "certificates[1].report.entries[6].detail: expected an object"),
    (lambda obj: obj["m_class"].update(surface="B"),
     "certificates[1]: malformed: m-space class must live on B'"),
], ids=["detail-list", "m-class-on-B"])
def test_loader_rejects_a_wrong_shape_in_a_later_certificate(doctor, message):
    with pytest.raises(SchemaError) as caught:
        _load_both(_second_of_two(doctor))
    assert str(caught.value) == message


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-string digit limit before Python 3.11")
@pytest.mark.parametrize("path", [
    ("report", "entries", 0, "value"), ("params", "l2", "coeffs", 3),
], ids=["entry-value", "class-coefficient"])
def test_a_rational_past_a_lowered_digit_limit_is_a_schema_error(path):
    """Under a lowered int-string limit a canonical 700-digit rational is too
    long to convert, wherever it stands; the error names its key path."""
    *where, key = path
    text = _second_of_two(lambda obj: _node(obj, where).__setitem__(key, "7" * 700))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(SchemaError) as caught:
            _load_both(text)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(caught.value) == (
        f"{_dotted(('certificates', 1, *path))}: rational too long: {'7' * 40!r}..."
    )


# === the family cut: each certificate derived from a family parsed whole in the call ===


def _one_family(certs, count):
    """The first count certificates of certs[0]'s family, in solve's order."""
    def shape(cert):
        return cert.u, cert.x, cert.z, cert.params.a2, cert.params.a3
    return [cert for cert in certs if shape(cert) == shape(certs[0])][:count]


def _whole_builds(text):
    """Each certificate of a file's text, parsed and built whole on its own."""
    return [certificate_from_dict(obj) for obj in json.loads(text)["certificates"]]


def _same_fields(loaded, whole):
    """loaded equals whole field by field, and params field by field: equal
    values of one type, held in field order."""
    assert loaded == whole
    for a, b in ((loaded, whole), (loaded.params, whole.params)):
        assert list(vars(a)) == list(vars(b)) == [f.name for f in dataclasses.fields(b)]
        for name, value in vars(b).items():
            assert getattr(a, name) == value and getattr(a, name).__class__ is value.__class__


def test_a_certificate_answered_through_the_cut_is_its_whole_parse(monkeypatch, certs):
    """Every certificate of the quick box after the first is answered through
    the family cut, by the with_params that solve derives its points with,
    and equals its own whole parse field by field."""
    text = dumps_certificates(certs)
    parsed = _parsed_whole(monkeypatch)
    derived = []
    with_params = SolutionCertificate.with_params

    def spy(cert, params):
        derived.append(with_params(cert, params))
        return derived[-1]

    monkeypatch.setattr(SolutionCertificate, "with_params", spy)
    loaded = loads_certificates(text)
    assert parsed == [0] and derived == loaded[1:]
    assert all(a is b for a, b in zip(derived, loaded[1:]))
    for cert, whole in zip(loaded, _whole_builds(text)):
        _same_fields(cert, whole)


_FAMILY_DOCTORS = {
    "u": lambda c: dataclasses.replace(c, u=c.u + 1),
    "x": lambda c: dataclasses.replace(c, x=c.x + 1),
    "z": lambda c: dataclasses.replace(c, z=c.z + 1),
    "report.c3": lambda c: dataclasses.replace(c, report=dataclasses.replace(c.report, c3=c.report.c3 + 1)),
    "report.S_s": lambda c: dataclasses.replace(c, report=dataclasses.replace(c.report, entries=tuple(
        dataclasses.replace(e, value=e.value + 1) if e.name == "S_s" else e for e in c.report.entries))),
}


@pytest.mark.parametrize("doctor", sorted(_FAMILY_DOCTORS))
def test_the_cut_after_a_doctored_certificate_is_the_whole_parse(monkeypatch, certs, doctor):
    """A doctored certificate (as the certify benchmark doctors them) switches
    the family: it is parsed whole, the next one doctored alike is derived
    from it, and the genuine ones after them are derived from the first
    genuine one, whose family is found again by its text; each equals its
    whole parse field by field."""
    family = _one_family(certs, 6)
    case = [*family[:2], *map(_FAMILY_DOCTORS[doctor], family[2:4]), *family[4:]]
    text = dumps_certificates(case)
    parsed = _parsed_whole(monkeypatch)
    loaded = loads_certificates(text)
    assert parsed == [0, 2] and loaded == case
    for cert, whole in zip(loaded, _whole_builds(text)):
        _same_fields(cert, whole)


@pytest.mark.parametrize("index", [1, 5])
def test_params_off_the_row_fail_through_the_cut_as_through_the_whole_parse(monkeypatch, certs, index):
    """Params on the (2, 4) row build, and the certificate holding them
    fails: through the cut with the error of its whole parse, the file as
    written, and spelled at indent 1, where it is parsed whole."""
    text = dumps_certificates(_one_family(certs, 6))
    start, end = _member_span(text, index, "params")
    params = text[start:end].replace('"k2": 3,', '"k2": 2,', 1).replace('"k3": 6,', '"k3": 4,', 1)
    text = text[:start] + params + text[end:]
    parsed = _parsed_whole(monkeypatch)
    # after a failing certificate the rest is only parsed, each whole
    for spelling, whole in ((text, [0, *range(index + 1, 6)]), (json.dumps(json.loads(text), indent=1), [*range(6)])):
        parsed.clear()
        with pytest.raises(SchemaError) as exc:
            loads_certificates(spelling)
        assert str(exc.value) == f"certificates[{index}]: malformed: bundle parameters disagree with the table row"
        assert parsed == whole
        with pytest.raises(SchemaError) as again:
            _load_both(spelling)
        assert str(again.value) == str(exc.value)
    with pytest.raises(SchemaError) as alone:
        certificate_from_dict(json.loads(text)["certificates"][index])
    assert str(alone.value) == "malformed: bundle parameters disagree with the table row"


def _doctor_plan(certs, seed):
    """certs shuffled by seed, an eighth of them doctored, each in one field
    that changes its family text, as the certify benchmark plans its file."""
    rng = random.Random(seed)
    listed = list(certs)
    rng.shuffle(listed)
    for pos in rng.sample(range(len(listed)), round(len(listed) / 8)):
        listed[pos] = _FAMILY_DOCTORS[rng.choice(sorted(_FAMILY_DOCTORS))](listed[pos])
    return listed


@pytest.mark.parametrize("plan", ["alternating", "doctor-plan-0", "doctor-plan-1", "doctor-plan-7"])
def test_each_family_is_parsed_whole_once(monkeypatch, certs, plan):
    """Families that come back after others (A B A B ..., or the certify
    benchmark's shuffled and doctored file) are each parsed whole once, at
    their first certificate; every later certificate is answered by its
    family's text, equals its whole parse field by field, and shares each
    shared member, and each multiplicity list and notes, with every equal
    one by identity."""
    if plan == "alternating":
        case = [_FAMILY_DOCTORS["report.c3"](c) if i % 2 else c for i, c in enumerate(certs[:16])]
    else:
        case = _doctor_plan(certs, int(plan.rsplit("-", 1)[1]))
    text = dumps_certificates(case)
    parsed = _parsed_whole(monkeypatch)
    loaded = loads_certificates(text)
    assert loaded == case
    assert parsed == _family_changes(text, len(case))
    assert len(parsed) == len({(c.u, c.x, c.z, c.report) for c in case}) == (2 if plan == "alternating" else 6)
    for cert, whole in zip(loaded, _whole_builds(text)):
        _same_fields(cert, whole)
    for get in map(attrgetter, ("row", "report", "notes", "params.a2", "params.a3")):
        canonical = {}
        assert all(get(c) is canonical.setdefault(get(c), get(c)) for c in loaded)


class _Counted(dict):
    """A dict that counts its lookups: one per key looked up, and one per key
    of a walk over it."""

    lookups = 0

    def _count(self, n=1):
        _Counted.lookups += n

    def get(self, key, default=None):
        self._count()
        return super().get(key, default)

    def __getitem__(self, key):
        self._count()
        return super().__getitem__(key)

    def __contains__(self, key):
        self._count()
        return super().__contains__(key)

    def __iter__(self):
        self._count(len(self))
        return super().__iter__()

    def keys(self):
        self._count(len(self))
        return super().keys()

    def values(self):
        self._count(len(self))
        return super().values()

    def items(self):
        self._count(len(self))
        return super().items()


def test_a_certificate_costs_a_bounded_number_of_family_lookups(monkeypatch, certs):
    """N certificates whose text before params is one family's but whose
    reports all differ are N families, each parsed whole; each is checked
    once, and its check looks up at most one family, however many the call
    holds."""
    case = [dataclasses.replace(c, report=dataclasses.replace(c.report, c3=c.report.c3 + i))
            for i, c in enumerate(certs[:48])]
    text = dumps_certificates(case)
    assert len({text[slice(*_run_spans(text, i)["before"])] for i in range(len(case))}) == 1
    parsed, checks = _parsed_whole(monkeypatch), []
    in_family = certificates._in_family

    def spy(text, at, last, families, *rest):
        checks.append(in_family(text, at, last, _Counted(families), *rest))
        return checks[-1]

    monkeypatch.setattr(certificates, "_in_family", spy)
    monkeypatch.setattr(_Counted, "lookups", 0)
    assert loads_certificates(text) == case
    assert parsed == list(range(len(case))) and checks == [None] * (len(case) - 1)
    assert _Counted.lookups <= len(checks)


def test_a_params_through_the_cut_is_moved_from_its_base(monkeypatch, certs):
    """A params whose k2, k3, a2 and a3 those of a params built whole earlier
    in the call are is that one's moved, its a2 and a3 the call's tuples:
    the quick box builds one params whole per (a2, a3) pair."""
    moved, built = [], []
    move, post_init = BundleParams.moved, BundleParams.__post_init__

    def spy_moved(params, *args):
        moved.append(move(params, *args))
        return moved[-1]

    def spy_post_init(params):
        built.append(params)
        post_init(params)

    monkeypatch.setattr(BundleParams, "moved", spy_moved)
    monkeypatch.setattr(BundleParams, "__post_init__", spy_post_init)
    loaded = loads_certificates(dumps_certificates(certs))
    bases = {(c.params.a2, c.params.a3) for c in certs}
    assert len(built) == len(bases) == 4 and len(moved) == len(certs) - len(bases)
    assert {id(c.params) for c in loaded} == {id(p) for p in built + moved}
    assert len({id(c.params.a2) for c in loaded}) == 2 and len({id(c.params.a3) for c in loaded}) == 2


def _renumbered(params):
    params["k2"], params["k3"] = 2, 4


def _l3_noncanonical(params):
    params["l3"]["coeffs"][1] = "-18/2"


# edits to one certificate's params, each failing its load
_PARAMS_EDITS = {
    "d2-true": lambda p: p.update(d2=True),
    "d2-float": lambda p: p.update(d2=float(p["d2"])),
    "d3-float": lambda p: p.update(d3=float(p["d3"])),
    "a2-bool": lambda p: p.update(a2=[0, True]),
    "a2-three-items": lambda p: p.update(a2=[0, 0, 0]),
    "l2-on-B": lambda p: p["l2"].update(surface="B"),
    "l3-noncanonical": _l3_noncanonical,
    "extra-key": lambda p: p.update(extra=1),
    "no-l3": lambda p: p.pop("l3"),
    "off-the-row": _renumbered,
}


@pytest.mark.parametrize("edit", _PARAMS_EDITS.values(), ids=_PARAMS_EDITS)
def test_a_params_error_through_the_cut_is_the_whole_parse(monkeypatch, certs, edit):
    """An edit to the params of a certificate the cut answers, whose k2, k3,
    a2 and a3 a params built earlier in the call may hold, fails with the
    message and key path of that certificate loaded alone: as written, at
    indent 1, where each certificate is parsed whole, and read 7 characters
    at a time."""
    index = 3
    payload = json.loads(dumps_certificates(_one_family(certs, 6)))
    edit(payload["certificates"][index]["params"])
    with pytest.raises(SchemaError) as alone:
        certificate_from_dict(payload["certificates"][index])
    parsed = _parsed_whole(monkeypatch)
    for indent in (2, 1):
        text = json.dumps(payload, indent=indent) + "\n"
        parsed.clear()
        with pytest.raises(SchemaError) as caught:
            loads_certificates(text)
        assert (caught.value.path, caught.value.reason) == (("certificates", index, *alone.value.path),
                                                             alone.value.reason)
        # as written, the cut answers every certificate up to the failing one
        assert parsed[:2] == ([0, index + 1] if indent == 2 else [0, 1])
        with pytest.raises(SchemaError) as again:
            _load_both(text)
        assert str(again.value) == str(caught.value)
