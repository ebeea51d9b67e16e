"""Truncated Chern data on the fiber product threefold.

The threefold X fibers over a pencil with two rational elliptic surface
factors: pi': X -> B and pi: X -> B'.  The even cohomology fragment needed by
the bundle calculus is spanned by

    H^0: 1
    H^2: pi'*(divisors on B), pi*(divisors on B')
    H^4: f x pt (fiber of pi), pt x f' (fiber of pi')
    H^6: pt.

The two fiber classes are identified under pi'*f = pi*f', so characters keep
a canonical form with the B-side H^2 part reduced to a multiple of the
section e.  Products are implemented only on the fragment where every H^2
part is a pullback from B' (canonical B-part zero): that is the closure of
everything the spectral/Hecke pipeline produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedProductError
from .lattice import EF_FRAME, DivisorClass, Surface, intersect, named_class, zero_class
from .spectral import ChernB

_E = named_class(Surface.B, "e")
_FP = named_class(Surface.BPRIME, "f")


@dataclass(frozen=True)
class ChernX:
    """Character (rank, c1, ch2, ch3) on X in the pullback fragment.

    c1 is stored as (c1_b, c1_bp): a pullback from B (canonically a multiple
    of the section e) plus a pullback from B'.  ch2 is stored by its
    coefficients on (f x pt, pt x f'), ch3 by its coefficient on pt.
    """

    rank: Fraction
    c1_b: DivisorClass
    c1_bp: DivisorClass
    h4_fpt: Fraction
    h4_ptf: Fraction
    h6: Fraction

    def __post_init__(self) -> None:
        for name in ("rank", "h4_fpt", "h4_ptf", "h6"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.c1_b.surface is not Surface.B or self.c1_bp.surface is not Surface.BPRIME:
            raise ValueError("c1 parts must be (class on B, class on B')")
        # canonical form: move the f-multiple of the B part across the
        # identification pi'*f = pi*f'
        s, t = EF_FRAME.require(self.c1_b)
        if t != 0:
            object.__setattr__(self, "c1_b", s * _E)
            object.__setattr__(self, "c1_bp", self.c1_bp + t * _FP)

    def __add__(self, other: "ChernX") -> "ChernX":
        return ChernX(
            self.rank + other.rank,
            self.c1_b + other.c1_b,
            self.c1_bp + other.c1_bp,
            self.h4_fpt + other.h4_fpt,
            self.h4_ptf + other.h4_ptf,
            self.h6 + other.h6,
        )

    def __mul__(self, other):
        return _product(self, other) if isinstance(other, ChernX) else NotImplemented


def pullback_from_b(c: ChernB) -> ChernX:
    """pi'* of a character on B: f |-> f', pt |-> pt x f'."""
    return ChernX(
        rank=c.rank,
        c1_b=c.div,
        c1_bp=zero_class(Surface.BPRIME),
        h4_fpt=0,
        h4_ptf=c.pt,
        h6=0,
    )


def pullback_line_bundle_ch(lcls: DivisorClass) -> ChernX:
    """ch(pi* of the line bundle O(L)) for L on B', truncated past degree 6.

    (pi*L)^2 = (L.L) f x pt and (pi*L)^3 = 0, so the series stops.
    """
    if lcls.surface is not Surface.BPRIME:
        raise ValueError("expected a divisor class on B'")
    return ChernX(
        rank=1,
        c1_b=zero_class(Surface.B),
        c1_bp=lcls,
        h4_fpt=Fraction(1, 2) * intersect(lcls, lcls),
        h4_ptf=0,
        h6=0,
    )


def _product(x: ChernX, y: ChernX) -> ChernX:
    """Graded product on the fragment with vertical H^2 parts.

    With a = x.c1_bp, b = y.c1_bp (both pullbacks along pi):
        pi*a . pi*b    = (a.b) f x pt
        pi*a . (f x pt)   = 0
        pi*a . (pt x f')  = (a.f') pt
    """
    if not x.c1_b.is_zero or not y.c1_b.is_zero:
        raise UnsupportedProductError(
            "products with a section-direction H^2 part are outside the implemented fragment"
        )
    a, b = x.c1_bp, y.c1_bp
    return ChernX(
        rank=x.rank * y.rank,
        c1_b=zero_class(Surface.B),
        c1_bp=x.rank * b + y.rank * a,
        h4_fpt=x.rank * y.h4_fpt + y.rank * x.h4_fpt + intersect(a, b),
        h4_ptf=x.rank * y.h4_ptf + y.rank * x.h4_ptf,
        h6=x.rank * y.h6 + y.rank * x.h6
        + intersect(a, _FP) * y.h4_ptf + intersect(b, _FP) * x.h4_ptf,
    )
