"""Command-line entry point.

Exit codes: 0 when everything checked out, 1 when a constraint or a
verification failed, 2 on malformed input.  All exact values print as
canonical rational strings; nothing is ever rounded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import __version__
from .assembly import DEFAULT_HPRIME, ch_component, ch_total, default_polarization
from .certificates import (
    bundle_params_from_json,
    certificate_to_dict,
    load_certificates,
    loads_certificates,
    rational_to_str,
    save_certificates,
)
from .characters import (
    LAMBDA_COLUMNS,
    SPANNING_CHARACTERS,
    chi_in_lattice,
    lambda_rank,
    lambda_representation,
)
from .errors import EllspecError, PolarizationError, SchemaError, TamperError
from .lattice import (
    COMPONENT_SUM,
    NOT_EFFECTIVE,
    SECTION_SUM,
    Surface,
    descent_not_effective,
    intersect,
    invariant_subspace_has_integral_point,
    is_ample_fxi,
    named_class,
    named_combination,
    pairing_table,
)
from .solver import (
    SearchBounds,
    consistency_check,
    enumerate_table1,
    solve,
    verify_certificate,
)
from .spectral import linear_system_dims, spectral_genus
from .threefold import ChernX


def _default_workers() -> int:
    env = os.environ.get("ELLSPEC_WORKERS")
    if env is not None:
        try:
            count = int(env)
        except ValueError:
            raise SchemaError(f"ELLSPEC_WORKERS must be an integer, got {env!r}")
        if count < 1:
            raise SchemaError("ELLSPEC_WORKERS must be at least 1")
        return count
    return os.cpu_count() or 1


def _join_terms(terms: list[str]) -> str:
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def _format_chern(label: str, c: ChernX) -> str:
    ch2_terms = []
    if c.h4_fpt != 0:
        ch2_terms.append(f"{rational_to_str(c.h4_fpt)} (f x pt)")
    if c.h4_ptf != 0:
        ch2_terms.append(f"{rational_to_str(c.h4_ptf)} (pt x f')")
    lines = [
        f"{label}:",
        f"  ch0 = {rational_to_str(c.rank)}",
        f"  ch1 = [on B: {c.c1_b}]  +  [on B': {c.c1_bp}]",
        f"  ch2 = {_join_terms(ch2_terms)}",
        f"  ch3 = {rational_to_str(c.h6)} pt",
    ]
    return "\n".join(lines)


# === subcommands ===


def _cmd_table1(_args: argparse.Namespace) -> int:
    print(f"{'k2':>3} {'k3':>3} {'l2f':>4} {'l3f':>4} {'k':>3}")
    for row in enumerate_table1():
        print(f"{row.k2:>3} {row.k3:>3} {row.l2f:>4} {row.l3f:>4} {row.k:>3}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    bounds = SearchBounds(
        u_abs=args.u_abs,
        x_abs=args.x_abs,
        z_min=args.z_min,
        z_max=args.z_max,
        d_abs=args.d_abs,
        a_max=args.a_max,
    )
    certs = solve(
        args.k2,
        args.k3,
        bounds,
        hprime=tuple(args.hprime),
        allow_nonconstant_lists=args.allow_nonconstant_lists,
        workers=args.workers,
    )
    for cert in certs:
        print(
            f"(k2,k3)=({cert.row.k2},{cert.row.k3})"
            f" u={cert.u} x={cert.x} z={cert.z}"
            f" d2={cert.params.d2} d3={cert.params.d3}"
            f" a2={list(cert.params.a2)} a3={list(cert.params.a3)}"
        )
    print(f"{len(certs)} certificate(s) within bounds {bounds}")
    if args.out is not None:
        if certs:
            save_certificates(args.out, certs)
            print(f"wrote {args.out}")
        else:
            print("nothing to write")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    certs = load_certificates(args.file)
    failures = 0
    for idx, cert in enumerate(certs):
        tag = f"certificate {idx} (k2={cert.row.k2}, k3={cert.row.k3}, u={cert.u}, x={cert.x})"
        try:
            report = verify_certificate(cert)
        except (TamperError, PolarizationError) as exc:
            print(f"FAIL {tag}: {exc}")
            failures += 1
            continue
        if report.all_pass:
            print(f"ok   {tag}")
        else:
            bad = ", ".join(e.name for e in report.entries if not e.passes)
            print(f"FAIL {tag}: constraints failed: {bad}")
            failures += 1
    print(f"{len(certs) - failures}/{len(certs)} certificate(s) verified")
    return 1 if failures else 0


def _cmd_ample(args: argparse.Namespace) -> int:
    cert = is_ample_fxi(args.a, args.b, args.c)
    verdict = "ample" if cert.ample else "NOT ample"
    print(f"{args.a}*f' + {args.b}*e1' + {args.c}*xi' is {verdict}")
    shown = ", ".join(rational_to_str(w) for w in cert.witnesses())
    print(f"witnesses (all must be positive): {shown}")
    return 0 if cert.ample else 1


def _cmd_chern(args: argparse.Namespace) -> int:
    try:
        payload = json.loads(Path(args.params).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read parameter file: {exc}")
    params = bundle_params_from_json(payload)
    print(_format_chern("ch(V2)", ch_component(2, params)))
    print(_format_chern("ch(V3)", ch_component(3, params)))
    print(_format_chern("ch(V)", ch_total(params)))
    return 0


def _cmd_chars(args: argparse.Namespace) -> int:
    reps = []
    for chi in SPANNING_CHARACTERS:
        member = chi_in_lattice(chi)
        rep = lambda_representation(chi) if member else None
        if member:
            reps.append(rep)
        print(f"{'ok  ' if member else 'FAIL'} chi={chi} -> {rep}")
    rank = lambda_rank(reps)
    print(f"columns: {', '.join(LAMBDA_COLUMNS)}")
    print(f"span rank: {rank} of {len(LAMBDA_COLUMNS)} ambient coordinates")
    return 0 if len(reps) == len(SPANNING_CHARACTERS) and rank == 7 else 1


def _golden_checks() -> list[tuple[str, bool, str]]:
    data = resources.files("ellspec.data")
    checks: list[tuple[str, bool, str]] = []

    table1 = json.loads(data.joinpath("table1.json").read_text())
    rows = [
        {"k2": r.k2, "k3": r.k3, "l2f": r.l2f, "l3f": r.l3f} for r in enumerate_table1()
    ]
    checks.append(("table1 rows", rows == table1["rows"], f"{len(rows)} rows"))

    table2 = json.loads(data.joinpath("table2.json").read_text())
    bp = Surface.BPRIME
    frame = [SECTION_SUM, named_class(bp, "f"), COMPONENT_SUM]
    matrix = [[rational_to_str(v) for v in row] for row in pairing_table(frame)]
    checks.append(
        ("table2 pairings", matrix == table2["matrix"], f"frame {table2['frame']}")
    )

    amp = is_ample_fxi(*DEFAULT_HPRIME)
    shown = ", ".join(rational_to_str(w) for w in amp.witnesses())
    checks.append(
        (
            "polarization ample",
            amp.ample and amp.witnesses() == (49, 1, 312, 168, 144, 15024),
            f"witnesses {shown}",
        )
    )

    slope_class = named_combination(
        bp, {"e": 6, "zeta": 6, "f": 5, "m1": 6}
    )
    s_s = intersect(slope_class, default_polarization())
    checks.append(("slope pairing", s_s == -12, f"value {rational_to_str(s_s)}"))

    mu = named_combination(bp, {"zeta": 6, "xi": 6, "f": -1})
    descent = descent_not_effective(mu)
    checks.append(
        (
            "descent terminates",
            descent.verdict == NOT_EFFECTIVE,
            f"{len(descent.steps)} step(s)",
        )
    )

    genus_ok = spectral_genus(2, 2) == 2 and spectral_genus(3, 6) == 13
    checks.append(("spectral genus anchors", genus_ok, "g(2,2)=2, g(3,6)=13"))

    dims36 = linear_system_dims(3, 6)
    dims22 = linear_system_dims(2, 2)
    dims_ok = (dims36.h0, dims36.invariant, dims36.anti_invariant) == (16, 9, 7) and (
        dims22.h0,
        dims22.invariant,
        dims22.anti_invariant,
    ) == (4, 3, 1)
    checks.append(("linear system dimensions", dims_ok, "r=3,k=6 and r=2,k=2"))

    golden_text = data.joinpath("golden_certificate.json").read_text()
    golden = loads_certificates(golden_text)[0]
    fresh = verify_certificate(golden)
    stored = json.loads(golden_text)
    round_trip = certificate_to_dict(golden) == stored
    checks.append(
        (
            "golden certificate verifies",
            fresh.all_pass and round_trip,
            f"k={golden.k}, u={golden.u}, x={golden.x}, z={golden.z}",
        )
    )

    point = invariant_subspace_has_integral_point()
    checks.append(
        (
            "no integral point on invariant subspace",
            not point.exists,
            f"obstruction value {rational_to_str(point.obstruction_value)}",
        )
    )

    lam = json.loads(data.joinpath("lambda_matrix.json").read_text())
    matrix = [list(lambda_representation(chi)) for chi in SPANNING_CHARACTERS]
    chars_ok = (
        all(chi_in_lattice(chi) for chi in SPANNING_CHARACTERS)
        and matrix == lam["rows"]
        and list(LAMBDA_COLUMNS) == lam["columns"]
        and lambda_rank(matrix) == 7
    )
    checks.append(("character lattice", chars_ok, "7 characters, rank 7"))

    center_ok = all(
        consistency_check(k, Fraction(-9, k), Fraction(3, k)).value == -12
        for k in (1, 2, 3, 6)
    )
    checks.append(("consistency disk center", center_ok, "value -12 for k in 1,2,3,6"))

    return checks


def _cmd_report(_args: argparse.Namespace) -> int:
    failures = 0
    for name, ok, detail in _golden_checks():
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures += 1
    print(f"{'all checks passed' if not failures else f'{failures} check(s) FAILED'}")
    return 1 if failures else 0


# === parser ===


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellspec",
        description="Exact-rational lattice calculus, bundle characters, and certificate search.",
    )
    parser.add_argument("--version", action="version", version=f"ellspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="print the admissible (k2, k3) table")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("solve", help="enumerate certificates on one table row")
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--k3", type=int, required=True)
    defaults = SearchBounds()
    p.add_argument("--u-abs", type=int, default=defaults.u_abs)
    p.add_argument("--x-abs", type=int, default=defaults.x_abs)
    p.add_argument("--z-min", type=int, default=defaults.z_min)
    p.add_argument("--z-max", type=int, default=defaults.z_max)
    p.add_argument("--d-abs", type=int, default=defaults.d_abs)
    p.add_argument("--a-max", type=int, default=defaults.a_max)
    p.add_argument(
        "--hprime",
        type=int,
        nargs=3,
        metavar=("A", "B", "C"),
        default=list(DEFAULT_HPRIME),
        help="polarization coefficients on (f', e1', xi')",
    )
    p.add_argument("--allow-nonconstant-lists", action="store_true")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", help="write certificates to this JSON file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="re-check a certificate file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ample", help="test a polarization in the (f', e1', xi') frame")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.set_defaults(func=_cmd_ample)

    p = sub.add_parser("chern", help="print component and total characters")
    p.add_argument("--params", required=True, help="bundle parameter JSON file")
    p.set_defaults(func=_cmd_chern)

    p = sub.add_parser("chars", help="check the restricted characters against the lattice")
    p.set_defaults(func=_cmd_chars)

    p = sub.add_parser("report", help="run the golden suite")
    p.set_defaults(func=_cmd_report)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "solve" and args.workers is None:
        try:
            args.workers = _default_workers()
        except SchemaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TamperError, PolarizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EllspecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
