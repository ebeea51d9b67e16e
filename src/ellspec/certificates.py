"""Certificate files: canonical JSON serialization and strict loading.

Rationals are serialized as canonical strings: reduced, positive
denominator, no "/1" for integers, i.e. the grammar

    -?(0|[1-9][0-9]*)(/[1-9][0-9]*)?

with a denominator of at least 2 coprime to the numerator and no "-0".
Loading matches that grammar before converting any digits, so every other
spelling, and any numerator or denominator past CPython's 4300-digit
int-string limit, is a SchemaError.  The emitter writes exactly the bytes of
``json.dumps(payload, indent=2) + "\n"``; the loader is ``json.loads`` plus
strict checks (every object holds exactly the keys the writer emits, each
once, booleans are JSON booleans, notes are arrays of strings), so a loaded
certificate is byte-for-byte reproducible when saved again.  A file holds
either one certificate object or {"version": "1", "certificates": [...]}.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from typing import Any, Sequence

from .assembly import BundleParams, ConstraintEntry, ConstraintReport
from .errors import SchemaError
from .lattice import RANK, DivisorClass, Surface, _from_ints
from .solver import SolutionCertificate, Table1Row

FORMAT_VERSION = "1"
BASIS_CONVENTION = (
    "picard(l,e1..e9); gram diag(1,-1^9); f=3l-(e1+..+e9); e=e9; zeta=e1; "
    "n1=e8-e9; o1=f-n1; o2=e7+e8+e9+f-l; n2=f-o2; xi=e4-e5+e9+f; m1=e4-e5"
)

# The canonical spelling; "0/q" and "p/1" match and are rejected by
# _rational_parts.  Each run of digits is capped at CPython's default
# int-string limit, so no text costs more than one bounded int conversion.
_RATIONAL = re.compile(r"(0|-?[1-9][0-9]{0,4299})(?:/([1-9][0-9]{0,4299}))?")

# The keys the writer emits for each object; the loader accepts no others.
_FILE_KEYS = frozenset({"version", "certificates"})
_CERT_KEYS = frozenset(
    "version basis_convention row k u x z m_class params hprime report notes".split()
)
_ROW_KEYS = frozenset({"k2", "k3", "l2f", "l3f"})
_HPRIME_KEYS = frozenset({"f", "e1", "xi"})
_PARAMS_KEYS = frozenset({"k2", "k3", "d2", "d3", "a2", "a3", "l2", "l3"})
_REPORT_KEYS = frozenset(
    "entries c2_deficit c2_deficit_effective c3 nonsplit slope_negative notes".split()
)
_ENTRY_KEYS = frozenset({"name", "passes"})
_ENTRY_OPTIONAL = frozenset({"value", "residual", "detail"})


def rational_to_str(value: Fraction) -> str:
    return str(value)


def _rational_parts(text: Any) -> tuple[int, int]:
    """Numerator and denominator of a canonical rational string."""
    if not isinstance(text, str):
        raise SchemaError(f"expected a rational string, got {text!r}")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise SchemaError(f"not a canonical rational: {text[:40]!r}")
    p, q = match.groups()
    try:
        if q is None:
            return int(p), 1
        p, q = int(p), int(q)
    except ValueError as exc:  # a lowered sys.set_int_max_str_digits
        raise SchemaError(f"rational too long: {text[:40]!r}...") from exc
    if q == 1 or gcd(p, q) != 1:
        raise SchemaError(f"non-canonical rational spelling: {text[:40]!r}")
    return p, q


def rational_from_str(text: Any) -> Fraction:
    return Fraction(*_rational_parts(text))


def divisor_to_json(d: DivisorClass) -> dict:
    den = d.den
    coeffs = []
    for x in d.num:
        g = gcd(x, den)
        coeffs.append(str(x // g) if g == den else f"{x // g}/{den // g}")
    return {"surface": d.surface.value, "coeffs": coeffs}


def divisor_from_json(obj: Any) -> DivisorClass:
    if not isinstance(obj, dict) or set(obj) != {"surface", "coeffs"}:
        raise SchemaError("divisor classes need exactly 'surface' and 'coeffs'")
    try:
        surface = Surface(obj["surface"])
    except ValueError as exc:
        raise SchemaError(f"unknown surface tag {obj['surface']!r}") from exc
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list) or len(coeffs) != RANK:
        raise SchemaError(f"divisor classes need {RANK} coefficients")
    nums, dens = zip(*map(_rational_parts, coeffs))
    den = lcm(*dens)
    return _from_ints(surface, tuple(p * (den // q) for p, q in zip(nums, dens)), den)


def _object(obj: Any, what: str, keys: frozenset, optional: frozenset = frozenset()) -> dict:
    """obj, if it is an object holding every one of keys and no key beyond
    keys and optional."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be an object")
    if not keys <= obj.keys() <= keys | optional:
        missing = sorted(keys - obj.keys())
        if missing:
            raise SchemaError(f"{what} is missing field {missing[0]!r}")
        raise SchemaError(f"{what} has unknown field {sorted(obj.keys() - keys - optional)[0]!r}")
    return obj


def _int_field(obj: dict, key: str) -> int:
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"field {key!r} must be an integer")
    return value


def _bool_field(obj: dict, key: str) -> bool:
    value = obj[key]
    if not isinstance(value, bool):
        raise SchemaError(f"field {key!r} must be a boolean")
    return value


def _notes_field(obj: dict) -> tuple[str, ...]:
    notes = obj["notes"]
    if not isinstance(notes, list) or not all(isinstance(n, str) for n in notes):
        raise SchemaError("'notes' must be an array of strings")
    return tuple(notes)


def bundle_params_to_json(params: BundleParams) -> dict:
    return {
        "k2": params.k2,
        "k3": params.k3,
        "d2": params.d2,
        "d3": params.d3,
        "a2": list(params.a2),
        "a3": list(params.a3),
        "l2": divisor_to_json(params.l2),
        "l3": divisor_to_json(params.l3),
    }


def bundle_params_from_json(obj: Any) -> BundleParams:
    _object(obj, "bundle parameters", _PARAMS_KEYS)
    try:
        a2 = obj["a2"]
        a3 = obj["a3"]
        for seq in (a2, a3):
            if not isinstance(seq, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in seq
            ):
                raise SchemaError("multiplicity lists must be integer arrays")
        return BundleParams(
            k2=_int_field(obj, "k2"),
            k3=_int_field(obj, "k3"),
            d2=_int_field(obj, "d2"),
            d3=_int_field(obj, "d3"),
            a2=tuple(a2),
            a3=tuple(a3),
            l2=divisor_from_json(obj["l2"]),
            l3=divisor_from_json(obj["l3"]),
        )
    except ValueError as exc:
        raise SchemaError(f"malformed bundle parameters: {exc}") from exc


def _entry_to_json(entry: ConstraintEntry) -> dict:
    out: dict[str, Any] = {"name": entry.name, "passes": entry.passes}
    if entry.value is not None:
        out["value"] = rational_to_str(entry.value)
    if entry.residual is not None:
        out["residual"] = divisor_to_json(entry.residual)
    if entry.detail is not None:
        out["detail"] = {name: ok for name, ok in entry.detail}
    return out


def _entry_from_json(obj: Any) -> ConstraintEntry:
    _object(obj, "constraint entry", _ENTRY_KEYS, _ENTRY_OPTIONAL)
    if not isinstance(obj["name"], str):
        raise SchemaError("'name' must be a string")
    if not isinstance(obj["passes"], bool):
        raise SchemaError("'passes' must be a boolean")
    detail = None
    if "detail" in obj:
        if not isinstance(obj["detail"], dict) or not all(
            isinstance(v, bool) for v in obj["detail"].values()
        ):
            raise SchemaError("'detail' must map check names to booleans")
        detail = tuple(obj["detail"].items())
    return ConstraintEntry(
        name=obj["name"],
        passes=obj["passes"],
        value=rational_from_str(obj["value"]) if "value" in obj else None,
        residual=divisor_from_json(obj["residual"]) if "residual" in obj else None,
        detail=detail,
    )


def report_to_json(report: ConstraintReport) -> dict:
    return {
        "entries": [_entry_to_json(e) for e in report.entries],
        "c2_deficit": [rational_to_str(v) for v in report.c2_deficit],
        "c2_deficit_effective": report.c2_deficit_effective,
        "c3": rational_to_str(report.c3),
        "nonsplit": report.nonsplit,
        "slope_negative": report.slope_negative,
        "notes": list(report.notes),
    }


def report_from_json(obj: Any) -> ConstraintReport:
    _object(obj, "report", _REPORT_KEYS)
    if not isinstance(obj["entries"], list):
        raise SchemaError("'entries' must be an array")
    entries = tuple(_entry_from_json(e) for e in obj["entries"])
    deficit = obj["c2_deficit"]
    if not isinstance(deficit, list) or len(deficit) != 2:
        raise SchemaError("'c2_deficit' must be a pair")
    return ConstraintReport(
        entries=entries,
        c2_deficit=(rational_from_str(deficit[0]), rational_from_str(deficit[1])),
        c2_deficit_effective=_bool_field(obj, "c2_deficit_effective"),
        c3=rational_from_str(obj["c3"]),
        nonsplit=_bool_field(obj, "nonsplit"),
        slope_negative=_bool_field(obj, "slope_negative"),
        notes=_notes_field(obj),
    )


def certificate_to_dict(cert: SolutionCertificate) -> dict:
    return {
        "version": FORMAT_VERSION,
        "basis_convention": BASIS_CONVENTION,
        "row": {
            "k2": cert.row.k2,
            "k3": cert.row.k3,
            "l2f": cert.row.l2f,
            "l3f": cert.row.l3f,
        },
        "k": cert.k,
        "u": cert.u,
        "x": cert.x,
        "z": cert.z,
        "m_class": divisor_to_json(cert.m_class),
        "params": bundle_params_to_json(cert.params),
        "hprime": {"f": cert.hprime[0], "e1": cert.hprime[1], "xi": cert.hprime[2]},
        "report": report_to_json(cert.report),
        "notes": list(cert.notes),
    }


def certificate_from_dict(obj: Any) -> SolutionCertificate:
    _object(obj, "certificate", _CERT_KEYS)
    if obj["version"] != FORMAT_VERSION:
        raise SchemaError(f"unsupported certificate version {obj['version']!r}")
    if obj["basis_convention"] != BASIS_CONVENTION:
        raise SchemaError("certificate uses another basis convention")
    try:
        row_obj = _object(obj["row"], "row", _ROW_KEYS)
        hprime_obj = _object(obj["hprime"], "hprime", _HPRIME_KEYS)
        row = Table1Row(
            k2=_int_field(row_obj, "k2"),
            k3=_int_field(row_obj, "k3"),
            l2f=_int_field(row_obj, "l2f"),
            l3f=_int_field(row_obj, "l3f"),
        )
        params = bundle_params_from_json(obj["params"])
        z = obj["z"]
        if z is not None and (not isinstance(z, int) or isinstance(z, bool)):
            raise SchemaError("field 'z' must be an integer or null")
        return SolutionCertificate(
            row=row,
            k=_int_field(obj, "k"),
            u=_int_field(obj, "u"),
            x=_int_field(obj, "x"),
            z=z,
            m_class=divisor_from_json(obj["m_class"]),
            params=params,
            hprime=(
                _int_field(hprime_obj, "f"),
                _int_field(hprime_obj, "e1"),
                _int_field(hprime_obj, "xi"),
            ),
            report=report_from_json(obj["report"]),
            notes=_notes_field(obj),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed certificate: {exc}") from exc


def dumps_certificates(certs: Sequence[SolutionCertificate]) -> str:
    if len(certs) == 1:
        payload: Any = certificate_to_dict(certs[0])
    else:
        payload = {
            "version": FORMAT_VERSION,
            "certificates": [certificate_to_dict(c) for c in certs],
        }
    out: list[str] = []
    _emit(payload, "\n", out)
    out.append("\n")
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii
# json.dumps spellings of the scalar types a payload holds, keyed by exact type
_SPELL = {
    str: _quote,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "null",
}


def _emit(value: Any, newline: str, out: list[str]) -> None:
    """Append ``json.dumps(value, indent=2)`` to out, for a value built from
    dict, list, str, int, bool and None (exact types; anything else is a
    TypeError); newline is a line break followed by the indentation of
    value's own line."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():  # _quote raises TypeError on a non-str key
            out.append(sep + _quote(key) + ": ")
            _emit(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        try:  # the common case, an array of strings, in one join
            out.append("[" + inner + ("," + inner).join(map(_quote, value)) + newline + "]")
            return
        except TypeError:
            pass
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _emit(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        spell = _SPELL.get(value.__class__)
        if spell is None:
            raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
        out.append(spell(value))


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict; a repeated key, which json.loads would let
    the last value win, is a SchemaError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        duplicate, _ = Counter(k for k, _ in pairs).most_common(1)[0]
        raise SchemaError(f"duplicate key {duplicate!r}")
    return obj


def loads_json(text: str) -> Any:
    """json.loads, with a repeated key, a too-long int or too-deep nesting a SchemaError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    # JSONDecodeError, an int past the digit limit, or nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc


def loads_certificates(text: str) -> list[SolutionCertificate]:
    payload = loads_json(text)
    if isinstance(payload, dict) and "certificates" in payload:
        _object(payload, "certificate file", _FILE_KEYS)
        if payload["version"] != FORMAT_VERSION:
            raise SchemaError(f"unsupported file version {payload['version']!r}")
        items = payload["certificates"]
        if not isinstance(items, list):
            raise SchemaError("'certificates' must be an array")
        return [certificate_from_dict(item) for item in items]
    return [certificate_from_dict(payload)]


def save_certificates(path: str | Path, certs: Sequence[SolutionCertificate]) -> None:
    Path(path).write_text(dumps_certificates(certs))


def load_certificates(path: str | Path) -> list[SolutionCertificate]:
    return loads_certificates(Path(path).read_text())
