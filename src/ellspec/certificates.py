"""Certificate files: canonical JSON serialization and strict loading.

Rationals are serialized as canonical strings through ``str(Fraction)``:
reduced, positive denominator, no "/1" for integers.  Loading rejects any
non-canonical spelling, so a loaded certificate is byte-for-byte
reproducible when saved again.  A file holds either one certificate object
or {"certificates": [...]}.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from .assembly import BundleParams, ConstraintEntry, ConstraintReport
from .errors import SchemaError
from .lattice import RANK, DivisorClass, Surface
from .solver import SolutionCertificate, Table1Row

FORMAT_VERSION = "1"
BASIS_CONVENTION = (
    "picard(l,e1..e9); gram diag(1,-1^9); f=3l-(e1+..+e9); e=e9; zeta=e1; "
    "n1=e8-e9; o1=f-n1; o2=e7+e8+e9+f-l; n2=f-o2; xi=e4-e5+e9+f; m1=e4-e5"
)


def rational_to_str(value: Fraction) -> str:
    return str(Fraction(value))


def rational_from_str(text: Any) -> Fraction:
    if not isinstance(text, str):
        raise SchemaError(f"expected a rational string, got {text!r}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not a rational: {text!r}") from exc
    if str(value) != text:
        raise SchemaError(f"non-canonical rational spelling: {text!r}")
    return value


def divisor_to_json(d: DivisorClass) -> dict:
    return {
        "surface": d.surface.value,
        "coeffs": [rational_to_str(c) for c in d.coeffs],
    }


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
    return DivisorClass(surface, tuple(rational_from_str(c) for c in coeffs))


def _int_field(obj: Any, key: str) -> int:
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object holding field {key!r}")
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"field {key!r} must be an integer")
    return value


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
    if not isinstance(obj, dict):
        raise SchemaError("bundle parameters must be an object")
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
    except KeyError as exc:
        raise SchemaError(f"bundle parameters missing field {exc.args[0]!r}") from exc
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
    if not isinstance(obj, dict) or "name" not in obj or "passes" not in obj:
        raise SchemaError("constraint entries need 'name' and 'passes'")
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
    if not isinstance(obj, dict):
        raise SchemaError("report must be an object")
    try:
        entries = tuple(_entry_from_json(e) for e in obj["entries"])
        deficit = obj["c2_deficit"]
        if not isinstance(deficit, list) or len(deficit) != 2:
            raise SchemaError("'c2_deficit' must be a pair")
        return ConstraintReport(
            entries=entries,
            c2_deficit=(rational_from_str(deficit[0]), rational_from_str(deficit[1])),
            c2_deficit_effective=bool(obj["c2_deficit_effective"]),
            c3=rational_from_str(obj["c3"]),
            nonsplit=bool(obj["nonsplit"]),
            slope_negative=bool(obj["slope_negative"]),
            notes=tuple(str(n) for n in obj.get("notes", [])),
        )
    except KeyError as exc:
        raise SchemaError(f"report is missing field {exc.args[0]!r}") from exc


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
    if not isinstance(obj, dict):
        raise SchemaError("certificate must be an object")
    if obj.get("version") != FORMAT_VERSION:
        raise SchemaError(f"unsupported certificate version {obj.get('version')!r}")
    try:
        row_obj = obj["row"]
        hprime_obj = obj["hprime"]
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
            notes=tuple(str(n) for n in obj.get("notes", [])),
        )
    except KeyError as exc:
        raise SchemaError(f"certificate is missing field {exc.args[0]!r}") from exc
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
    return json.dumps(payload, indent=2) + "\n"


def loads_certificates(text: str) -> list[SolutionCertificate]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if isinstance(payload, dict) and "certificates" in payload:
        if payload.get("version") != FORMAT_VERSION:
            raise SchemaError(f"unsupported file version {payload.get('version')!r}")
        items = payload["certificates"]
        if not isinstance(items, list):
            raise SchemaError("'certificates' must be an array")
        return [certificate_from_dict(item) for item in items]
    return [certificate_from_dict(payload)]


def save_certificates(path: str | Path, certs: Sequence[SolutionCertificate]) -> None:
    Path(path).write_text(dumps_certificates(certs))


def load_certificates(path: str | Path) -> list[SolutionCertificate]:
    return loads_certificates(Path(path).read_text())
