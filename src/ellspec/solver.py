"""Certificate search over the Diophantine constraint system.

The linear constraints S_e, C1, C3 pin the fiber degrees of the two twists
to one of five (k2, k3) rows; on each row the remaining freedom is an
integer pair (u, x), an m-space class (z*m1 on the default grid, z kept as
provenance, or an explicit integral candidate), the d-degrees and the Hecke
multiplicity lists.  One scan serves both kinds of m-class:

    integrality   enumerated, not tested: {e+zeta, f, n1+o2, m1} is
                  saturated, so integral twists with d2 even, d3 = 1 (mod 3),
                  s21 even and s31 = 0 (mod 3) occur exactly when k | 3,
                  u + 9/k = 0 (mod 6) and x = 5 (mod 6); the scan steps
                  through these residue classes
    consistency   (u, m) lets the c2 window and the slope inequality
                  coexist for some real x
    feasibility   the integer point (u, x, m) satisfies both conditions

Every surviving parameter point is assembled into a BundleParams, evaluated
against the full constraint system, and emitted as a SolutionCertificate
that can be re-verified from its raw parameters alone.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable

from .assembly import (
    DEFAULT_HPRIME,
    BundleParams,
    ConstraintReport,
    evaluate_constraints,
    polarization_class,
)
from .errors import PolarizationError, TamperError
from .hecke import means_gap, newton_sum
from .lattice import (
    COMPONENT_SUM,
    SECTION_SUM,
    DivisorClass,
    Surface,
    intersect,
    is_ample_fxi,
    m_space_check,
    named_class,
)

_FP = named_class(Surface.BPRIME, "f")
_E4 = named_class(Surface.BPRIME, "e4")
_M1 = named_class(Surface.BPRIME, "m1")


@dataclass(frozen=True)
class Table1Row:
    """One admissible (k2, k3) row with its forced twist fiber degrees."""

    k2: int
    k3: int
    l2f: int
    l3f: int

    def __post_init__(self) -> None:
        if not (self.k2 >= 2 and self.k3 >= 3 and self.k2 + self.k3 <= 12):
            raise ValueError("row outside the admissible (k2, k3) rectangle")
        if 2 * self.l2f + 3 * self.l3f != 0:
            raise ValueError("fiber degrees violate 2*l2f + 3*l3f = 0")
        if self.k2 * self.l2f + self.k3 * self.l3f != -6:
            raise ValueError("fiber degrees violate k2*l2f + k3*l3f = -6")
        if not self.l2f > self.l3f:
            raise ValueError("fiber degrees violate l2f > l3f")

    @property
    def k(self) -> int:
        return 2 * self.k3 - 3 * self.k2


def enumerate_table1() -> tuple[Table1Row, ...]:
    """All rows of the admissible table, by brute force over the rectangle."""
    rows = []
    for k2 in range(2, 11):
        for k3 in range(3, 11):
            if k2 + k3 > 12:
                continue
            k = 2 * k3 - 3 * k2
            if k <= 0 or 18 % k != 0 or 12 % k != 0:
                continue
            rows.append(Table1Row(k2=k2, k3=k3, l2f=18 // k, l3f=-12 // k))
    return tuple(rows)


def build_l_classes_m(
    k2: int, k3: int, u, x, m_class: DivisorClass, d2: int, d3: int, s21, s31
) -> tuple[DivisorClass, DivisorClass]:
    """Twist classes from the residual parametrization, with an explicit
    m-space class."""
    k = 2 * k3 - 3 * k2
    if k <= 0:
        raise ValueError("parametrization requires k = 2*k3 - 3*k2 > 0")
    u, x, s21, s31 = Fraction(u), Fraction(x), Fraction(s21), Fraction(s31)
    nine_k = Fraction(9, k)
    l2 = (
        nine_k * SECTION_SUM
        + Fraction(1, 2) * (x - d2 + 2 * k2 - 1) * _FP
        + Fraction(1, 2) * (u + nine_k + s21) * COMPONENT_SUM
        + 3 * m_class
    )
    l3 = (
        Fraction(-6, k) * SECTION_SUM
        + Fraction(1, 3) * (-x - d3 + 3 * k3 - 3) * _FP
        + Fraction(1, 3) * (-u - nine_k + s31) * COMPONENT_SUM
        - 2 * m_class
    )
    return l2, l3


@dataclass(frozen=True)
class ConsistencyResult:
    passes: bool
    value: Fraction


def consistency_check_m(k: int, u, m_class: DivisorClass) -> ConsistencyResult:
    """Whether (u, m) lets the c2 window and the slope inequality hold for
    some real x: eliminating x between c2_value <= gaps <= 0 and
    gamma.e4 = x + u + 9/k + 6 m.e4 < 0 leaves value <= 0."""
    if k <= 0:
        raise ValueError("consistency check requires k > 0")
    value = (
        Fraction(5, 3) * (Fraction(u) + Fraction(9, k)) ** 2
        - 15 * intersect(m_class, m_class)
        + Fraction(180, k) * intersect(m_class, _E4)
        + Fraction(270, k * k)
        - 12
    )
    return ConsistencyResult(passes=value <= 0, value=value)


def consistency_check(k: int, u, z) -> ConsistencyResult:
    """The consistency test on the m1 ray, where it is the (u, z) disk
    5/3 (u + 9/k)^2 + 30 (z - 3/k)^2 <= 12."""
    return consistency_check_m(k, u, Fraction(z) * _M1)


@dataclass(frozen=True)
class FeasibilityResult:
    c2_ok: bool
    ss_ok: bool
    c2_value: Fraction
    gamma_exit: Fraction


def feasibility_check_m(k: int, u, x, m_class: DivisorClass, gaps) -> FeasibilityResult:
    """Integer-point feasibility at (u, x) with an explicit m-space class.

    c2_ok compares the quadratic form against the (nonpositive) multiplicity
    gaps; ss_ok certifies the slope inequality through the effectivity of
    the witness class gamma, checked by its pairings.
    """
    if k <= 0:
        raise ValueError("feasibility check requires k > 0")
    u, x, gaps = Fraction(u), Fraction(x), Fraction(gaps)
    c2_value = (
        Fraction(5, 3) * u * u
        - 15 * intersect(m_class, m_class)
        - Fraction(30, k) * x
        + Fraction(135, k * k)
        - 12
    )
    gamma = (x + u + Fraction(9, k)) * _FP + 6 * m_class
    gamma_exit = intersect(gamma, _E4)
    ss_ok = gamma_exit < 0 and intersect(gamma - _E4, _FP) == -1
    return FeasibilityResult(
        c2_ok=c2_value <= gaps, ss_ok=ss_ok, c2_value=c2_value, gamma_exit=gamma_exit
    )


@dataclass(frozen=True)
class IntegralityReport:
    passes: bool
    checks: tuple[tuple[str, bool], ...]


def integrality_check(k: int, u, x, z, d2: int, d3: int, s21, s31) -> IntegralityReport:
    """Integrality of the built twist classes plus the forced congruences."""
    u, x, s21, s31 = Fraction(u), Fraction(x), Fraction(s21), Fraction(s31)
    checks = [("k_divides_3", k > 0 and 3 % k == 0)]
    if k > 0:
        checks.extend(
            [
                ("section_coeff_l2", Fraction(9, k).denominator == 1),
                ("section_coeff_l3", Fraction(6, k).denominator == 1),
                ("fiber_coeff_l2", ((x - d2 - 1) / 2).denominator == 1),
                ("fiber_coeff_l3", ((x + d3) / 3).denominator == 1),
                ("component_coeff_l2", ((u + Fraction(9, k) + s21) / 2).denominator == 1),
                ("component_coeff_l3", ((u + Fraction(9, k) - s31) / 3).denominator == 1),
                ("m_coeff", Fraction(z).denominator == 1),
            ]
        )
    checks.extend(
        [
            ("d2_even", d2 % 2 == 0),
            ("d3_mod_3_is_1", d3 % 3 == 1),
            ("s21_even", s21 % 2 == 0),
            ("s31_mod_3_is_0", s31 % 3 == 0),
        ]
    )
    return IntegralityReport(passes=all(ok for _, ok in checks), checks=tuple(checks))


@dataclass(frozen=True)
class SearchBounds:
    """Scan windows for the residual parameters."""

    u_abs: int = 12
    x_abs: int = 20
    z_min: int = 0
    z_max: int = 4
    d_abs: int = 40
    a_max: int = 5

    def __post_init__(self) -> None:
        for name in ("u_abs", "x_abs", "d_abs", "a_max"):
            if getattr(self, name) < 0:
                raise ValueError(f"search bound {name} must be nonnegative")
        if self.z_min > self.z_max:
            raise ValueError("search bound z_min must not exceed z_max")


@dataclass(frozen=True)
class SolutionCertificate:
    """A parameter point together with its all-pass constraint report.

    The certificate is re-verifiable: the twist classes and the report are
    recomputed from the raw parameters and compared against the stored ones.
    """

    row: Table1Row
    k: int
    u: int
    x: int
    z: int | None
    m_class: DivisorClass
    params: BundleParams
    hprime: tuple[int, int, int]
    report: ConstraintReport
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.k != self.row.k:
            raise ValueError("stored k disagrees with the table row")
        if self.k <= 0:
            raise ValueError("certificates require k > 0")
        if self.m_class.surface is not Surface.BPRIME:
            raise ValueError("m-space class must live on B'")
        if (self.params.k2, self.params.k3) != (self.row.k2, self.row.k3):
            raise ValueError("bundle parameters disagree with the table row")


def _row_for(k2: int, k3: int) -> Table1Row:
    for row in enumerate_table1():
        if (row.k2, row.k3) == (k2, k3):
            return row
    raise ValueError(f"({k2}, {k3}) is not an admissible table row")


def _multiplicity_lists(length: int, a_max: int, nonconstant: bool) -> list[tuple[int, ...]]:
    """The lists whose sum is divisible by their length: s21 even, s31 = 0 (mod 3)."""
    if nonconstant:
        lists = product(range(a_max + 1), repeat=length)
        return sorted(a for a in lists if sum(a) % length == 0)
    return [(v,) * length for v in range(a_max + 1)]


def _congruent(bound: int, modulus: int, residue: int) -> range:
    """The integers in [-bound, bound] congruent to residue (mod modulus)."""
    return range(-bound + (residue + bound) % modulus, bound + 1, modulus)


def _scan_shape(task) -> list[SolutionCertificate]:
    """Evaluate the d-grid of one feasible (a2, a3, u, m, x) shape: every
    even d2 against every d3 = 1 (mod 3)."""
    (row, a2, a3, u, z, m_class, x, d_abs, hprime, notes) = task
    s21, s31 = int(newton_sum(a2, 1)), int(newton_sum(a3, 1))
    hp_class = polarization_class(hprime)
    out: list[SolutionCertificate] = []
    for d2 in _congruent(d_abs, 2, 0):
        for d3 in _congruent(d_abs, 3, 1):
            l2, l3 = build_l_classes_m(row.k2, row.k3, u, x, m_class, d2, d3, s21, s31)
            params = BundleParams(row.k2, row.k3, d2, d3, a2, a3, l2, l3)
            report = evaluate_constraints(params, hp_class, extra_notes=notes)
            if report.all_pass:
                out.append(SolutionCertificate(
                    row=row, k=row.k, u=u, x=x, z=z, m_class=m_class,
                    params=params, hprime=hprime, report=report, notes=notes,
                ))
    return out


def _certificate_sort_key(cert: SolutionCertificate):
    return (
        cert.u,
        cert.x,
        cert.z if cert.z is not None else 10**9,
        cert.m_class.coeffs,
        cert.params.d2,
        cert.params.d3,
        cert.params.a2,
        cert.params.a3,
    )


def solve(
    k2: int,
    k3: int,
    bounds: SearchBounds | None = None,
    *,
    hprime: tuple[int, int, int] = DEFAULT_HPRIME,
    allow_nonconstant_lists: bool = False,
    m_candidates: Iterable[DivisorClass] | None = None,
    workers: int = 1,
) -> list[SolutionCertificate]:
    """Enumerate every certificate on one table row within the bounds.

    The scan is exhaustive over the bounded parameter box: (u, m) through
    the consistency test, then the multiplicity lists (constant by default)
    and x through the feasibility window, then the d-grid; u, x, d2, d3 and
    the lists run over the residue classes that make the twists integral.
    Results are deterministic and sorted regardless of the worker count.
    """
    row = _row_for(k2, k3)
    k = row.k
    b = bounds if bounds is not None else SearchBounds()
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if not is_ample_fxi(*hprime).ample:
        raise PolarizationError("default search requires an ample polarization")

    if m_candidates is None:
        m_grid = [(z, z * _M1) for z in range(b.z_min, b.z_max + 1)]
    else:
        m_grid = []
        for m_class in m_candidates:
            if not m_space_check(m_class):
                raise ValueError(f"candidate {m_class} fails the m-space check")
            if not m_class.is_integral:
                raise ValueError(f"candidate {m_class} is not integral")
            m_grid.append((None, m_class))

    if 3 % k != 0:  # 9/k is fractional, so no twist on this row is integral
        return []
    notes: tuple[str, ...] = ()
    if k == 1:
        notes = ("k = 1 row: geometric side conditions not certified by this search",)

    lists = [
        (a2, a3, means_gap(2, a2) + means_gap(3, a3))
        for a2 in _multiplicity_lists(2, b.a_max, allow_nonconstant_lists)
        for a3 in _multiplicity_lists(3, b.a_max, allow_nonconstant_lists)
    ]
    tasks = []
    for u in _congruent(b.u_abs, 6, -9 // k):
        for z, m_class in m_grid:
            if not consistency_check_m(k, u, m_class).passes:
                continue
            for a2, a3, gaps in lists:
                for x in _congruent(b.x_abs, 6, 5):
                    feas = feasibility_check_m(k, u, x, m_class, gaps)
                    if feas.c2_ok and feas.ss_ok:
                        tasks.append((row, a2, a3, u, z, m_class, x, b.d_abs, hprime, notes))

    size = min(workers, len(tasks))
    if size > 1:
        with multiprocessing.Pool(size) as pool:
            chunks = pool.map(_scan_shape, tasks)
    else:
        chunks = [_scan_shape(task) for task in tasks]

    certificates = [cert for chunk in chunks for cert in chunk]
    certificates.sort(key=_certificate_sort_key)
    return certificates


def verify_certificate(cert: SolutionCertificate) -> ConstraintReport:
    """Recompute a certificate from its raw parameters and compare.

    Returns the fresh report; raises TamperError if the stored twist
    classes or any stored report entry disagree with recomputation.
    """
    if not m_space_check(cert.m_class):
        raise TamperError("stored m-space class fails the m-space check")
    if cert.z is not None and cert.m_class != cert.z * _M1:
        raise TamperError("stored m-space class disagrees with z")
    s21 = int(newton_sum(cert.params.a2, 1))
    s31 = int(newton_sum(cert.params.a3, 1))
    l2, l3 = build_l_classes_m(
        cert.row.k2, cert.row.k3, cert.u, cert.x, cert.m_class,
        cert.params.d2, cert.params.d3, s21, s31,
    )
    if l2 != cert.params.l2 or l3 != cert.params.l3:
        raise TamperError("stored twist classes disagree with the parametrization")
    fresh = evaluate_constraints(
        cert.params, polarization_class(cert.hprime), extra_notes=cert.notes
    )
    difference = _report_difference(cert.report, fresh)
    if difference is not None:
        raise TamperError(f"stored constraint report disagrees with recomputation at {difference}")
    return fresh


_ENTRY_FIELDS = ("passes", "value", "residual", "detail")
_REPORT_FIELDS = ("c2_deficit", "c2_deficit_effective", "c3", "nonsplit", "slope_negative")


def _report_difference(stored: ConstraintReport, fresh: ConstraintReport) -> str | None:
    """The first entry or field where two reports differ, with the stored
    and the recomputed exact value; None when they agree."""
    names = [e.name for e in stored.entries]
    fresh_names = [e.name for e in fresh.entries]
    if names != fresh_names:
        return f"entry names: stored {names}, recomputed {fresh_names}"
    for s, f in zip(stored.entries, fresh.entries):
        for name in _ENTRY_FIELDS:
            a, b = getattr(s, name), getattr(f, name)
            if a != b:
                return f"{s.name}.{name}: stored {_shown(a)}, recomputed {_shown(b)}"
    for name in _REPORT_FIELDS:
        a, b = getattr(stored, name), getattr(fresh, name)
        if a != b:
            return f"{name}: stored {_shown(a)}, recomputed {_shown(b)}"
    return None


def _shown(value) -> str:
    """An exact value on one line: rationals as canonical strings."""
    if isinstance(value, tuple):
        return "(" + ", ".join(_shown(v) for v in value) + ")"
    return str(value)
