"""Chern characters of spectral sheaves on the base surface.

A sheaf supported on a curve in the surface B has Chern character
(0, [support], ch2) in H^0 + H^2 + H^4.  The fiberwise Fourier-Mukai
transform acts on these truncated characters by

    1 |-> undefined here (rank zero in, rank out comes from the section part)
    e |-> 1 - f/2,   f |-> -pt,   pt |-> f,

so a line bundle of degree d on a curve in |r*e + m*f| transforms into a
rank-r character with vertical first Chern class.  This module computes both
sides of that equality, the arithmetic genus of the spectral curves, and the
dimension counts for the linear systems |r*e + k*f| together with their
splitting under the fiberwise involution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import EF_FRAME, DivisorClass, Surface, named_class


@dataclass(frozen=True)
class ChernB:
    """Truncated Chern character (rank, divisor, point degree) on B."""

    rank: Fraction
    div: DivisorClass
    pt: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "rank", Fraction(self.rank))
        object.__setattr__(self, "pt", Fraction(self.pt))
        if self.div.surface is not Surface.B:
            raise ValueError("ChernB divisor part must live on B")


@dataclass(frozen=True)
class SpectralParams:
    """Spectral data: curve class r*e + m*f and a degree-d line bundle on it."""

    r: int
    m: int
    d: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("spectral cover degree r must be at least 1")


def fourier_mukai_b(c: ChernB) -> ChernB:
    """Transform of a rank-zero character supported in the e, f directions."""
    if c.rank != 0:
        raise ValueError("only rank-zero characters (sheaves on curves) transform here")
    s, t = EF_FRAME.require(c.div)
    f = named_class(Surface.B, "f")
    return ChernB(rank=s, div=(c.pt - s / 2) * f, pt=-t)


def curve_pushforward_ch(p: SpectralParams) -> ChernB:
    """Character of a degree-d line bundle pushed forward from a curve in
    |r*e + m*f|, computed through Riemann-Roch on the curve."""
    e = named_class(Surface.B, "e")
    f = named_class(Surface.B, "f")
    support = p.r * e + p.m * f
    # ch2 = d + (canonical pairing)/2: the curve has K_B = -f
    ch2 = Fraction(p.d) + Fraction(p.r * (p.r + 1), 2) - p.r * p.m - Fraction(p.r, 2)
    return ChernB(rank=Fraction(0), div=support, pt=ch2)


def spectral_ch(p: SpectralParams) -> ChernB:
    """Closed form of fourier_mukai_b(curve_pushforward_ch(p))."""
    f = named_class(Surface.B, "f")
    fiber_degree = Fraction(p.d) + Fraction(p.r * (p.r + 1), 2) - p.r * p.m - p.r
    return ChernB(rank=Fraction(p.r), div=fiber_degree * f, pt=Fraction(-p.m))


def spectral_genus(r: int, m: int) -> int:
    """Arithmetic genus of a curve in |r*e + m*f|."""
    g2 = 2 * r * m - r * r - r
    if g2 < -2:
        raise ValueError(f"|{r}*e + {m}*f| has negative arithmetic genus")
    return g2 // 2 + 1


@dataclass(frozen=True)
class LinearSystemDims:
    """Dimension count for |r*e + k*f| and its involution splitting."""

    h0: int
    invariant: int
    anti_invariant: int


def linear_system_dims(r: int, k: int) -> LinearSystemDims:
    """Section counts of |r*e + k*f| for r in {1, 2, 3}.

    Pushing forward to the pencil base splits the system into summands of
    degrees k and k - j for j = 2..r; the fiberwise involution acts on a
    degree-n summand with ceil((n+1)/2) invariant sections.
    """
    if r not in (1, 2, 3):
        raise ValueError("linear system dimensions implemented for r in {1, 2, 3}")
    if k < 0:
        raise ValueError("fiber degree k must be nonnegative")
    h0 = invariant = anti = 0
    for j in [0] + list(range(2, r + 1)):
        sections = k - j + 1
        if sections <= 0:
            continue
        h0 += sections
        invariant += (sections + 1) // 2
        anti += sections // 2
    return LinearSystemDims(h0=h0, invariant=invariant, anti_invariant=anti)


def smooth_invariant_exists(r: int, k: int) -> bool:
    """Whether the invariant part of |r*e + k*f| contains a smooth member."""
    if r == 3:
        return k >= 3
    if r == 2:
        return k >= 2 and k % 2 == 0
    raise ValueError("smoothness criterion implemented for r in {2, 3}")
