"""Assembly of the rank-5 bundle character and its constraint system.

The bundle is a sum V2 + V3 of rank-2 and rank-3 pieces, each obtained from
a spectral character pulled back to the threefold, Hecke-corrected along the
reducible fibers, and twisted by a line bundle from B'.  This module holds
the closed forms of ch(V2), ch(V3), ch(V) and the machine checks for the
constraint system a good certificate must satisfy:

    S_e   the two twists differ in fiber degree (non-splitness witness)
    S_s   the rank-2 slope is negative against the chosen polarization
    C1    c1(V) = 0
    C2_f  the pt x f' part of c2(X) - c2(V) is nonnegative
    C2_f' the f x pt part of c2(X) - c2(V) is nonnegative
    C3    c3(V) = 12
    integrality of the twists and the stated congruences (CONGRUENCES)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .errors import PolarizationError
from .hecke import multiplicities
from .lattice import (
    COMPONENT_SUM,
    DivisorClass,
    Surface,
    combination,
    fxi_coordinates,
    int_pairing,
    intersect,
    is_ample_fxi,
    named_class,
    named_combination,
    zero_class,
)
from .spectral import SpectralParams
from .threefold import ChernX

_CI = {2: 1, 3: 3}  # binom(i+1, 2) - i
_FP = named_class(Surface.BPRIME, "f")
_K1_NOTES = ("k = 1 row: geometric side conditions not certified by this search",)
# (detail name, modulus, residue) for d2, d3, S^1(a2), S^1(a3): a stated input, not
# forced by integrality; on (3, 6) integral twists allow 36 residue classes, these pick one
CONGRUENCES = (("d2_even", 2, 0), ("d3_mod_3_is_1", 3, 1), ("s21_even", 2, 0), ("s31_mod_3_is_0", 3, 0))


@dataclass(frozen=True)
class BundleParams:
    """Raw data of one V2 + V3 assembly."""

    k2: int
    k3: int
    d2: int
    d3: int
    a2: tuple[int, ...]
    a3: tuple[int, ...]
    l2: DivisorClass
    l3: DivisorClass

    def __post_init__(self) -> None:
        if (self.k2.__class__, self.k3.__class__, self.d2.__class__, self.d3.__class__) != (int,) * 4:
            raise ValueError("k2, k3, d2 and d3 must be ints")
        a2, a3 = multiplicities(2, self.a2), multiplicities(3, self.a3)
        if a2 is not self.a2:  # a checked tuple is kept as it is
            object.__setattr__(self, "a2", a2)
        if a3 is not self.a3:
            object.__setattr__(self, "a3", a3)
        l2, l3 = self.l2, self.l3
        if not (l2.__class__ is l3.__class__ is DivisorClass and l2.surface is l3.surface is Surface.BPRIME):
            for name, lcls in (("l2", l2), ("l3", l3)):
                if not isinstance(lcls, DivisorClass):
                    raise ValueError(f"{name} must be a DivisorClass")
                if lcls.surface is not Surface.BPRIME:
                    raise ValueError("twist classes must live on B'")

    def moved(self, d2: int, d3: int, l2: DivisorClass, l3: DivisorClass) -> BundleParams:
        """The constructor's params with d2, d3, l2 and l3 replaced, checking only those."""
        if not (d2.__class__ is d3.__class__ is int and l2.__class__ is l3.__class__ is DivisorClass
                and l2.surface is l3.surface is Surface.BPRIME):  # the constructor decides, with its own error
            return replace(self, d2=d2, d3=d3, l2=l2, l3=l3)
        moved, put = object.__new__(BundleParams), object.__setattr__
        put(moved, "k2", self.k2)  # in field order, as the constructor sets them
        put(moved, "k3", self.k3)
        put(moved, "d2", d2)
        put(moved, "d3", d3)
        put(moved, "a2", self.a2)
        put(moved, "a3", self.a3)
        put(moved, "l2", l2)
        put(moved, "l3", l3)
        return moved

    def component(self, i: int) -> tuple[int, int, tuple[int, ...], DivisorClass]:
        if i == 2:
            return self.k2, self.d2, self.a2, self.l2
        if i == 3:
            return self.k3, self.d3, self.a3, self.l3
        raise ValueError("component index must be 2 or 3")


def _ch_closed_form(i: int, p: BundleParams):
    """ch(V_i) on the int numerators of its twist l = L/n: rank i, the
    (coeff, class) terms of c1 (all from B'), ch2 on f x pt as a (numerator,
    denominator) pair, ch2 on pt x f' (-k) and ch3 (-k l.f') as a pair."""
    k, d, a, lcls = p.component(i)
    s1, s2, L, n = sum(a), sum(x * x for x in a), lcls.num, lcls.den
    fiber_coeff, lf = d - i * k + _CI[i], int_pairing(L, _FP.num)
    # ch2 . f x pt = i/2 l.l + fiber_coeff l.f' - S^1 l.(n1' + o2') - 2 S^2
    lc = int_pairing(L, COMPONENT_SUM.num)
    h4_fpt = i * int_pairing(L, L) + 2 * n * (fiber_coeff * lf - s1 * lc) - 4 * s2 * n * n
    c1_terms = ((i, lcls), (fiber_coeff, _FP), (-s1, COMPONENT_SUM))
    return c1_terms, (h4_fpt, 2 * n * n), -k, (-k * lf, n)


def ch_component(i: int, p: BundleParams) -> ChernX:
    """Closed form of ch(V_i)."""
    c1_terms, h4_fpt, h4_ptf, h6 = _ch_closed_form(i, p)
    return ChernX(
        rank=i, c1_b=zero_class(Surface.B), c1_bp=combination(Surface.BPRIME, c1_terms),
        h4_fpt=Fraction(*h4_fpt), h4_ptf=h4_ptf, h6=Fraction(*h6),
    )


def ch_total(p: BundleParams) -> ChernX:
    return ch_component(2, p) + ch_component(3, p)


def spectral_input(i: int, p: BundleParams) -> SpectralParams:
    """The spectral data feeding component i (cover degree i, twist k_i)."""
    k, d, _, _ = p.component(i)
    return SpectralParams(i, k, d)


DEFAULT_HPRIME = (25, 144, 168)


def polarization_class(hprime: tuple[int, int, int]) -> DivisorClass:
    """The class a f' + b e1' + c xi' of a polarization triple (a, b, c)."""
    a, b, c = hprime
    return named_combination(Surface.BPRIME, {"f": a, "e1": b, "xi": c})


def default_polarization() -> DivisorClass:
    """The stock ample class 25 f' + 144 e1' + 168 xi'."""
    return polarization_class(DEFAULT_HPRIME)


@dataclass(frozen=True)
class ConstraintEntry:
    name: str
    passes: bool
    value: Fraction | None = None
    residual: DivisorClass | None = None
    detail: tuple[tuple[str, bool], ...] | None = None


@dataclass(frozen=True)
class ConstraintReport:
    entries: tuple[ConstraintEntry, ...]
    c2_deficit: tuple[Fraction, Fraction]
    c2_deficit_effective: bool
    c3: Fraction
    nonsplit: bool
    slope_negative: bool
    notes: tuple[str, ...] = ()

    def entry(self, name: str) -> ConstraintEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    @property
    def all_pass(self) -> bool:
        return all(e.passes for e in self.entries)


@lru_cache(maxsize=128)  # bounded: polarizations come from files
def certified_ample(hprime: DivisorClass) -> bool:
    """Whether hprime is certified ample in the (f', e1', xi') frame."""
    coords = fxi_coordinates(hprime)
    return coords is not None and is_ample_fxi(*coords).ample


def require_ample(hprime: DivisorClass) -> None:
    """The report's polarization gate, which `solve` also runs up front:
    PolarizationError unless `certified_ample`."""
    if not certified_ample(hprime):
        raise PolarizationError(
            "polarization is not certified ample in the (f', e1', xi') frame"
        )


def congruence_check(congruence, value) -> tuple[str, bool]:
    """(name, whether value meets the congruence) for a (name, modulus, residue) row."""
    name, modulus, residue = congruence
    return name, value % modulus == residue


def evaluate_constraints(p: BundleParams, hprime: DivisorClass) -> ConstraintReport:
    """Evaluate the full constraint system against a certified-ample
    polarization.  The values are computed on int numerators; only the
    stored ones are Fractions.  On the k = 2 k3 - 3 k2 = 1 row the report
    notes that the search does not certify the geometric side conditions.
    """
    require_ample(hprime)
    c1_2, (h4n2, h4d2), _, (h6n2, h6d2) = _ch_closed_form(2, p)
    c1_3, (h4n3, h4d3), _, (h6n3, h6d3) = _ch_closed_form(3, p)
    n2, n3 = p.l2.den, p.l3.den
    l2f, l3f = int_pairing(p.l2.num, _FP.num), int_pairing(p.l3.num, _FP.num)
    # ch3(V) = h6n / h6d; C3 asks c3(V) = 2 ch3(V) = 12, its residual is 6 - ch3(V)
    h6n, h6d = h6n2 * h6d3 + h6n3 * h6d2, h6d2 * h6d3

    se_slack = Fraction(l2f * n3 - l3f * n2, n2 * n3)
    ss_value = intersect(combination(Surface.BPRIME, c1_2), hprime)  # the slope of V2
    c1_residual = combination(Surface.BPRIME, c1_2 + c1_3)
    c2f_slack = Fraction(12 - (p.k2 + p.k3))
    c2fp_slack = Fraction(h4n2 * h4d3 + h4n3 * h4d2 + 12 * h4d2 * h4d3, h4d2 * h4d3)
    c3_residual = Fraction(6 * h6d - h6n, h6d)

    integrality_detail = (
        ("l2_integral", p.l2.is_integral),
        ("l3_integral", p.l3.is_integral),
        *map(congruence_check, CONGRUENCES, (p.d2, p.d3, sum(p.a2), sum(p.a3))),
    )

    entries = (
        ConstraintEntry("S_e", se_slack > 0, value=se_slack),
        ConstraintEntry("S_s", ss_value < 0, value=ss_value),
        ConstraintEntry("C1", c1_residual.is_zero, residual=c1_residual),
        ConstraintEntry("C2_f", c2f_slack >= 0, value=c2f_slack),
        ConstraintEntry("C2_fprime", c2fp_slack >= 0, value=c2fp_slack),
        ConstraintEntry("C3", c3_residual == 0, value=c3_residual),
        ConstraintEntry("integrality", all(ok for _, ok in integrality_detail), detail=integrality_detail),
    )
    return ConstraintReport(
        entries=entries,
        c2_deficit=(c2fp_slack, c2f_slack),
        c2_deficit_effective=c2fp_slack >= 0 and c2f_slack >= 0,
        c3=Fraction(2 * h6n, h6d),
        nonsplit=se_slack > 0,
        slope_negative=ss_value < 0,
        notes=_K1_NOTES if 2 * p.k3 - 3 * p.k2 == 1 else (),
    )


def ext_lower_bound(k2: int, k3: int, l2f, l3f) -> Fraction:
    """Lower bound for the relevant extension count between the two spectral
    supports, scaled by the fiber-degree gap of the twists."""
    e = named_class(Surface.B, "e")
    f = named_class(Surface.B, "f")
    support_pairing = intersect(3 * e + k3 * f, 2 * e + k2 * f)
    return support_pairing * (Fraction(l2f) - Fraction(l3f))

