"""Certificate search over the Diophantine constraint system.

The linear constraints S_e, C1, C3 pin the fiber degrees of the two twists
to one of five (k2, k3) rows; on each row the remaining freedom is an
integer pair (u, x), an m-space class (z*m1 on the default grid, z kept as
provenance, or an explicit integral candidate), the d-degrees and the Hecke
multiplicity lists.  One scan serves both kinds of m-class:

    integrality   enumerated, not tested: {e+zeta, f, n1+o2, m1} is
                  saturated, so integral twists with d2 even, d3 = 1 (mod 3),
                  s21 even and s31 = 0 (mod 3) occur exactly when k | 3,
                  u = 3 (mod 6) on the k | 3 rows and x = 5 (mod 6); the scan
                  steps through these residue classes
    consistency   the c2 window at zero gaps, x >= lo, and the slope
                  inequality, x < hi, bound the x-window of (u, m); the scan
                  keeps (u, m) when lo <= hi, since gaps <= 0 only raise lo
    feasibility   the integer point (u, x, m) lies in the window

Each surviving (u, x, m, a2, a3) shape is crossed with its d-grid by one
coset rule, shared by solve and verify_certificate.  A grid step maps
(d_i, l_i) to (d_i + i, l_i - f'), so `_coset` builds the twists and
evaluates the report once, at the representative (d2 mod 2, d3 mod 3), and
the twist at d is the representative's minus (d2 // 2) f' for l2 and
(d3 // 3) f' for l3.  With c_i = binom(i+1, 2) - i, the report reads l_i
only through

    c1(V_i) = i l_i + (d_i - i k_i + c_i) f' - S^1 (n1'+o2'),    l_i.f',
    i l_i.l_i + 2 (d_i - i k_i + c_i) l_i.f' - 2 S^1 l_i.(n1'+o2'),

each unchanged by the step since f'.f' = 0 and f'.(n1'+o2') = 0; f' is
integral and the step keeps d2 mod 2 and d3 mod 3, which the integrality
detail reads, so that is unchanged too.  solve emits each point, in the
order of the loops u, x, m, d2, d3, (a2, a3) and with no sort, as a
SolutionCertificate that can be re-verified from its raw parameters alone.
verify_certificate has three bounded memos, which solve neither reads nor
fills.  The coset memo, keyed on (z, m, k2, k3, u, x, d2 mod 2, d3 mod 3,
a2, a3, h'), stores the coset of an m-class that passes the m-space check,
then z; a failing m-class raises its TamperError, which is not cached, so it
is checked again on each call.  The key keeps the residues, since a genuine
certificate off its congruences stores that failing detail.  The step memo
holds the stepped twist of each (representative twist, steps).  The report
memo remembers each pair of a stored and a fresh report object found equal,
so certificates sharing one stored report (as loaded ones do) compare it
field by field once per fresh report; it holds both objects, so no id is
reused, and a mismatch is never remembered.  The invariance covers the
stored twists only once they are tied to the parametrization, so each
certificate's stepped twists are compared before its report; that also keeps
a tampered twist reported as such whatever the polarization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable

from .assembly import (
    CONGRUENCES,
    DEFAULT_HPRIME,
    BundleParams,
    ConstraintReport,
    certified_ample,
    congruence_check,
    evaluate_constraints,
    polarization_class,
    require_ample,
)
from .errors import TamperError
from .hecke import means_gap
from .lattice import (
    COMPONENT_SUM,
    SECTION_SUM,
    DivisorClass,
    Surface,
    combination,
    intersect,
    m_space_check,
    named_class,
)

_FP = named_class(Surface.BPRIME, "f")
_E4 = named_class(Surface.BPRIME, "e4")
_M1 = named_class(Surface.BPRIME, "m1")
# u and x (mod 6) of the integral twists meeting CONGRUENCES on the k | 3 rows
_U_MOD_6, _X_MOD_6 = ("u_mod_6_is_3", 6, 3), ("x_mod_6_is_5", 6, 5)


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
    u, x, s21, s31 = (v if isinstance(v, (int, Fraction)) else Fraction(v) for v in (u, x, s21, s31))
    nine_k = Fraction(9, k)
    # l2 = 9/k (e'+zeta') + (x - d2 + 2 k2 - 1)/2 f' + (u + 9/k + s21)/2 (n1'+o2') + 3 m
    l2 = combination(Surface.BPRIME, (
        (nine_k, SECTION_SUM), (Fraction(x - d2 + 2 * k2 - 1, 2), _FP),
        (Fraction(u + nine_k + s21, 2), COMPONENT_SUM), (3, m_class),
    ))
    # l3 = -6/k (e'+zeta') + (-x - d3 + 3 k3 - 3)/3 f' + (-u - 9/k + s31)/3 (n1'+o2') - 2 m
    l3 = combination(Surface.BPRIME, (
        (Fraction(-6, k), SECTION_SUM), (Fraction(-x - d3 + 3 * k3 - 3, 3), _FP),
        (Fraction(-u - nine_k + s31, 3), COMPONENT_SUM), (-2, m_class),
    ))
    return l2, l3


def _x_window(k: int, u, m_class: DivisorClass) -> tuple[Fraction, Fraction]:
    """The two half-lines in x the gates test at (u, m): the c2 window at
    zero gaps, x >= lo, and the slope inequality x + u + 9/k + 6 m.e4' < 0,
    i.e. x < hi."""
    if k <= 0:
        raise ValueError("the x-window requires k > 0")
    u, mm = Fraction(u), intersect(m_class, m_class)
    lo = Fraction(k, 30) * (Fraction(5, 3) * u * u - 15 * mm + Fraction(135, k * k) - 12)
    return lo, -u - Fraction(9, k) - 6 * intersect(m_class, _E4)


@dataclass(frozen=True)
class ConsistencyResult:
    passes: bool
    value: Fraction


def consistency_check(k: int, u, z) -> ConsistencyResult:
    """The consistency test on the m1 ray, where (30/k)(lo - hi) is the
    (u, z) disk 5/3 (u + 9/k)^2 + 30 (z - 3/k)^2 - 12."""
    lo, hi = _x_window(k, u, Fraction(z) * _M1)
    value = Fraction(30, k) * (lo - hi)
    return ConsistencyResult(passes=value <= 0, value=value)


@dataclass(frozen=True)
class FeasibilityResult:
    c2_ok: bool
    ss_ok: bool
    c2_value: Fraction
    gamma_exit: Fraction


def feasibility_check_m(k: int, u, x, m_class: DivisorClass, gaps) -> FeasibilityResult:
    """Whether x lies in the x-window of (u, m): c2_ok compares (30/k)(lo - x)
    with the (nonpositive) multiplicity gaps; ss_ok asks x < hi and m.f' = 0,
    so that a class outside m-space fails."""
    lo, hi = _x_window(k, u, m_class)
    x, gaps = Fraction(x), Fraction(gaps)
    c2_value = Fraction(30, k) * (lo - x)
    return FeasibilityResult(
        c2_ok=c2_value <= gaps, ss_ok=x < hi and intersect(m_class, _FP) == 0,
        c2_value=c2_value, gamma_exit=x - hi,
    )


@dataclass(frozen=True)
class IntegralityReport:
    passes: bool
    checks: tuple[tuple[str, bool], ...]


def integrality_check(k: int, u, x, z, d2: int, d3: int, s21, s31) -> IntegralityReport:
    """Integrality of the built twists, by the residue classes `solve` enumerates."""
    u, x, z, s21, s31 = (Fraction(v) for v in (u, x, z, s21, s31))
    checks = (
        ("k_divides_3", k > 0 and 3 % k == 0),
        ("m_coeff", z.denominator == 1),
        *map(congruence_check, (_U_MOD_6, _X_MOD_6, *CONGRUENCES), (u, x, d2, d3, s21, s31)),
    )
    return IntegralityReport(passes=all(ok for _, ok in checks), checks=checks)


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
        for field in fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"search bound {field.name} must be an int, got {value!r}")
            if value < 0 and field.name in ("u_abs", "x_abs", "d_abs", "a_max"):
                raise ValueError(f"search bound {field.name} must be nonnegative")
        if self.z_min > self.z_max:
            raise ValueError("search bound z_min must not exceed z_max")


@dataclass(frozen=True)
class SolutionCertificate:
    """A parameter point together with its all-pass constraint report.

    The certificate is re-verifiable by the one coset rule `solve` emits it
    with: the twist classes and the report are recomputed from the raw
    parameters at its d-grid coset and compared against the stored ones.
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
        if self.m_class.surface is not Surface.BPRIME:
            raise ValueError("m-space class must live on B'")
        if (self.params.k2, self.params.k3) != (self.row.k2, self.row.k3):
            raise ValueError("bundle parameters disagree with the table row")


def _row_for(k2: int, k3: int) -> Table1Row:
    for row in enumerate_table1():
        if (row.k2, row.k3) == (k2, k3):
            return row
    raise ValueError(f"({k2}, {k3}) is not an admissible table row")


def _multiplicity_lists(length: int, a_max: int, nonconstant: bool, congruence) -> list[tuple[int, ...]]:
    """The lists, sorted, whose sum meets the congruence; only constant ones unless nonconstant."""
    lists = product(range(a_max + 1), repeat=length) if nonconstant else ((v,) * length for v in range(a_max + 1))
    return [a for a in lists if congruence_check(congruence, sum(a))[1]]


def _congruent(bound: int, congruence) -> range:
    """The integers in [-bound, bound] that meet the congruence (name, modulus, residue)."""
    _, modulus, residue = congruence
    return range(-bound + (residue + bound) % modulus, bound + 1, modulus)


def _coset(k2, k3, u, x, m_class, d2_mod_2, d3_mod_3, a2, a3, hprime):
    """(l2, l3, report) of a shape's d-grid coset at its representative
    (d2 mod 2, d3 mod 3); the report is None if h' is not certified ample."""
    l2, l3 = build_l_classes_m(k2, k3, u, x, m_class, d2_mod_2, d3_mod_3, sum(a2), sum(a3))
    hp_class = polarization_class(hprime)
    if not certified_ample(hp_class):
        return l2, l3, None
    return l2, l3, evaluate_constraints(BundleParams(k2, k3, d2_mod_2, d3_mod_3, a2, a3, l2, l3), hp_class)


@lru_cache(maxsize=128)  # verify's; bounded, since the shapes come from files
def _verified_coset(z, m_class, k2, k3, u, x, d2_mod_2, d3_mod_3, a2, a3, hprime):
    """The _coset of a stored m-class that passes the m-space check, then z;
    a TamperError otherwise, which lru_cache does not keep."""
    if not m_space_check(m_class):
        raise TamperError("stored m-space class fails the m-space check")
    if z is not None and m_class != z * _M1:
        raise TamperError("stored m-space class disagrees with z")
    return _coset(k2, k3, u, x, m_class, d2_mod_2, d3_mod_3, a2, a3, hprime)


def _step(twist: DivisorClass, steps: int) -> DivisorClass:
    """A representative's twist moved `steps` grid steps along its d-axis
    (d2 + 2 for l2, d3 + 3 for l3): each step subtracts f'."""
    return combination(Surface.BPRIME, ((1, twist), (-steps, _FP)))


# verify's step and report memos (see the module docstring); bounded, since
# the twists and reports come from files
_stepped = lru_cache(maxsize=1024)(_step)
_equal_reports: dict[tuple[int, int], tuple[ConstraintReport, ConstraintReport]] = {}


def _clear_verify_memos() -> None:
    """Empty verify's three memos together; solve reads none of them."""
    _verified_coset.cache_clear()
    _stepped.cache_clear()
    _equal_reports.clear()


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
    the consistency test, then x and the multiplicity lists (constant by
    default) through the feasibility window, then the d-grid; u, x, d2, d3
    and the lists run over the residue classes that make the twists integral.
    It runs in one process and emits in order of (u, x, z, m coefficients,
    d2, d3, a2, a3): the loops nest that way, and explicit candidates are
    scanned sorted by their coefficients, so no global sort is needed.  A
    candidate listed twice, or an hprime that is not three ints, is a
    ValueError; a list hprime is stored as a tuple.  `workers` must be 1; it
    remains only because the benchmark's workloads pass it.
    """
    row = _row_for(k2, k3)
    k = row.k
    b = bounds if bounds is not None else SearchBounds()
    if workers != 1:
        raise ValueError("workers must be 1: solve runs in one process")
    if not (isinstance(hprime, (tuple, list)) and len(hprime) == 3
            and all(isinstance(v, int) and not isinstance(v, bool) for v in hprime)):
        raise ValueError(f"polarization hprime must be three ints, got {hprime!r}")
    hprime = tuple(hprime)
    require_ample(polarization_class(hprime))

    if m_candidates is None:
        m_grid = [(z, z * _M1) for z in range(b.z_min, b.z_max + 1)]
    else:
        m_grid = []
        for m_class in sorted(m_candidates, key=lambda m: m.coeffs):
            if not m_space_check(m_class):
                raise ValueError(f"candidate {m_class} fails the m-space check")
            if not m_class.is_integral:
                raise ValueError(f"candidate {m_class} is not integral")
            if m_grid and m_grid[-1][1] == m_class:
                raise ValueError(f"candidate {m_class} is listed twice")
            m_grid.append((None, m_class))

    d2c, d3c, s21c, s31c = CONGRUENCES
    d2s, d3s = _congruent(b.d_abs, d2c), _congruent(b.d_abs, d3c)
    if 3 % k != 0 or not (d2s and d3s):  # 9/k fractional (no integral twist) or no d-grid
        return []

    lists = [
        (a2, a3, means_gap(2, a2) + means_gap(3, a3))
        for a2 in _multiplicity_lists(2, b.a_max, allow_nonconstant_lists, s21c)
        for a3 in _multiplicity_lists(3, b.a_max, allow_nonconstant_lists, s31c)
    ]
    certificates = []
    for u in _congruent(b.u_abs, _U_MOD_6):
        windows = ((z, m, *_x_window(k, u, m)) for z, m in m_grid)
        consistent = [(z, m) for z, m, lo, hi in windows if lo <= hi]
        for x in _congruent(b.x_abs, _X_MOD_6):
            for z, m_class in consistent:
                shapes = []
                for a2, a3, gaps in lists:
                    feas = feasibility_check_m(k, u, x, m_class, gaps)
                    if not (feas.c2_ok and feas.ss_ok):
                        continue
                    # one coset per shape, uncached: see the module docstring
                    l2, l3, report = _coset(k2, k3, u, x, m_class, d2c[2], d3c[2], a2, a3, hprime)
                    if report.all_pass:
                        l2s, l3s = [_step(l2, d2 // 2) for d2 in d2s], [_step(l3, d3 // 3) for d3 in d3s]
                        shapes.append((a2, a3, l2s, l3s, report))
                certificates.extend(
                    SolutionCertificate(
                        row=row, k=k, u=u, x=x, z=z, m_class=m_class,
                        params=BundleParams(k2, k3, d2, d3, a2, a3, l2s[i], l3s[j]),
                        hprime=hprime, report=report, notes=report.notes,
                    )
                    for i, d2 in enumerate(d2s)
                    for j, d3 in enumerate(d3s)
                    for a2, a3, l2s, l3s, report in shapes
                )
    return certificates


def verify_certificate(cert: SolutionCertificate) -> ConstraintReport:
    """Recompute a certificate from its raw parameters by the one coset rule
    `solve` emits it with, and compare.

    Reads the coset, step and report memos (see the module docstring).
    Returns the fresh report, one object shared by every certificate of the
    shape and d-residues; raises TamperError if the m-class fails, or the
    stored twists, report or notes disagree.
    """
    p = cert.params
    l2, l3, fresh = _verified_coset(
        cert.z, cert.m_class, p.k2, p.k3, cert.u, cert.x, p.d2 % 2, p.d3 % 3, p.a2, p.a3, tuple(cert.hprime),
    )
    if _stepped(l2, p.d2 // 2) != p.l2 or _stepped(l3, p.d3 // 3) != p.l3:
        raise TamperError("stored twist classes disagree with the parametrization")
    if fresh is None:
        require_ample(polarization_class(cert.hprime))
    pair = (id(cert.report), id(fresh))
    if pair not in _equal_reports:
        if cert.report != fresh:
            difference = _report_difference(cert.report, fresh)
            raise TamperError(f"stored constraint report disagrees with recomputation at {difference}")
        if len(_equal_reports) >= 128:  # each entry keeps a stored report alive
            del _equal_reports[next(iter(_equal_reports))]
        _equal_reports[pair] = cert.report, fresh
    if cert.notes != fresh.notes:
        shown = f"stored {_shown(cert.notes)}, recomputed {_shown(fresh.notes)}"
        raise TamperError(f"stored notes disagree with recomputation: {shown}")
    return fresh


def _report_difference(stored: ConstraintReport, fresh: ConstraintReport) -> str:
    """The first entry or field, as the dataclasses list them, where two unequal
    reports differ, with the stored and the recomputed exact value."""
    names = [e.name for e in stored.entries]
    fresh_names = [e.name for e in fresh.entries]
    if names != fresh_names:
        return f"entry names: stored {names}, recomputed {fresh_names}"
    pairs = [(f"{s.name}.", s, f) for s, f in zip(stored.entries, fresh.entries)]
    for prefix, s, f in [*pairs, ("", stored, fresh)]:
        for field in fields(s)[1:]:  # after the entry's name, or the report's entries
            a, b = getattr(s, field.name), getattr(f, field.name)
            if a != b:
                return f"{prefix}{field.name}: stored {_shown(a)}, recomputed {_shown(b)}"
    raise ArithmeticError("unequal reports agree on every field")


def _shown(value) -> str:
    """An exact value on one line: rationals as canonical strings, strings
    as json spells them, so that ("",) and () read apart."""
    if isinstance(value, tuple):
        return "(" + ", ".join(_shown(v) for v in value) + ")"
    return json.dumps(value) if isinstance(value, str) else str(value)
