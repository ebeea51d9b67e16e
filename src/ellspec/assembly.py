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
    integrality of the twists and the congruences forced by them
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import PolarizationError
from .hecke import HeckeMultiplicities, newton_sum
from .lattice import (
    COMPONENT_SUM,
    DivisorClass,
    Surface,
    fxi_coordinates,
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
        object.__setattr__(self, "a2", tuple(int(x) for x in self.a2))
        object.__setattr__(self, "a3", tuple(int(x) for x in self.a3))
        HeckeMultiplicities(2, self.a2)
        HeckeMultiplicities(3, self.a3)
        for lcls in (self.l2, self.l3):
            if lcls.surface is not Surface.BPRIME:
                raise ValueError("twist classes must live on B'")

    def component(self, i: int) -> tuple[int, int, tuple[int, ...], DivisorClass]:
        if i == 2:
            return self.k2, self.d2, self.a2, self.l2
        if i == 3:
            return self.k3, self.d3, self.a3, self.l3
        raise ValueError("component index must be 2 or 3")


def ch_component(i: int, p: BundleParams) -> ChernX:
    """Closed form of ch(V_i)."""
    k, d, a, lcls = p.component(i)
    s1 = newton_sum(a, 1)
    s2 = newton_sum(a, 2)
    fiber_coeff = Fraction(d - i * k + _CI[i])
    c1_bp = i * lcls + fiber_coeff * _FP - s1 * COMPONENT_SUM
    lf = intersect(lcls, _FP)
    return ChernX(
        rank=Fraction(i),
        c1_b=zero_class(Surface.B),
        c1_bp=c1_bp,
        h4_fpt=Fraction(i, 2) * intersect(lcls, lcls)
        + fiber_coeff * lf
        - s1 * intersect(lcls, COMPONENT_SUM)
        - 2 * s2,
        h4_ptf=Fraction(-k),
        h6=-k * lf,
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


def evaluate_constraints(
    p: BundleParams,
    hprime: DivisorClass,
    *,
    hprime_unverified: bool = False,
    extra_notes: Sequence[str] = (),
) -> ConstraintReport:
    """Evaluate the full constraint system against a polarization.

    hprime must be an ample class in the (f', e1', xi') frame; passing
    hprime_unverified=True downgrades a failed ampleness gate to a note.
    """
    notes = list(extra_notes)
    coords = fxi_coordinates(hprime)
    ample = coords is not None and is_ample_fxi(*coords).ample
    if not ample:
        if not hprime_unverified:
            raise PolarizationError(
                "polarization is not certified ample in the (f', e1', xi') frame"
            )
        notes.append("polarization not certified ample; slope check is formal")

    s21 = newton_sum(p.a2, 1)
    s31 = newton_sum(p.a3, 1)
    total = ch_total(p)

    l2f, l3f = intersect(p.l2, _FP), intersect(p.l3, _FP)
    se_slack = l2f - l3f
    slope_class = 2 * p.l2 + Fraction(p.d2 + 1 - 2 * p.k2) * _FP - s21 * COMPONENT_SUM
    ss_value = intersect(slope_class, hprime)
    c1_residual = total.c1_bp
    c2f_slack = Fraction(12 - (p.k2 + p.k3))
    c2fp_slack = total.h4_fpt + 12
    c3_residual = p.k2 * l2f + p.k3 * l3f + 6

    integrality_detail = (
        ("l2_integral", p.l2.is_integral),
        ("l3_integral", p.l3.is_integral),
        ("d2_even", p.d2 % 2 == 0),
        ("d3_mod_3_is_1", p.d3 % 3 == 1),
        ("s21_even", s21 % 2 == 0),
        ("s31_mod_3_is_0", s31 % 3 == 0),
    )

    entries = (
        ConstraintEntry("S_e", se_slack > 0, value=se_slack),
        ConstraintEntry("S_s", ss_value < 0, value=ss_value),
        ConstraintEntry("C1", c1_residual.is_zero, residual=c1_residual),
        ConstraintEntry("C2_f", c2f_slack >= 0, value=c2f_slack),
        ConstraintEntry("C2_fprime", c2fp_slack >= 0, value=c2fp_slack),
        ConstraintEntry("C3", c3_residual == 0, value=c3_residual),
        ConstraintEntry(
            "integrality",
            all(ok for _, ok in integrality_detail),
            detail=integrality_detail,
        ),
    )
    return ConstraintReport(
        entries=entries,
        c2_deficit=(c2fp_slack, c2f_slack),
        c2_deficit_effective=c2fp_slack >= 0 and c2f_slack >= 0,
        c3=2 * total.h6,
        nonsplit=se_slack > 0,
        slope_negative=ss_value < 0,
        notes=tuple(notes),
    )


def ext_lower_bound(k2: int, k3: int, l2f, l3f) -> Fraction:
    """Lower bound for the relevant extension count between the two spectral
    supports, scaled by the fiber-degree gap of the twists."""
    e = named_class(Surface.B, "e")
    f = named_class(Surface.B, "f")
    support_pairing = intersect(3 * e + k3 * f, 2 * e + k2 * f)
    return support_pairing * (Fraction(l2f) - Fraction(l3f))

