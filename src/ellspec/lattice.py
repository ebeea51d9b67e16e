"""Intersection calculus on a pair of rational elliptic surfaces.

The Picard lattice of each surface is modeled in the blowup basis
(l, e1, ..., e9) with intersection form diag(1, -1, ..., -1).  Two surfaces
named B and B' carry the same basis; classes from different surfaces never
pair.  On top of the raw lattice this module provides the named classes used
throughout the package (fiber f, sections, I2-fiber components, the
polarization frame (f, e1, xi), and the m-classes), an ampleness certificate
for polarizations in the (f, e1, xi) frame, an effectivity descent, and an
integral-point decision procedure for affine subspaces of the lattice.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from . import linalg
from .errors import SpanError, SurfaceMismatchError

RANK = 10
BASIS = ("l", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9")
GRAM_DIAG = (1, -1, -1, -1, -1, -1, -1, -1, -1, -1)


class Surface(Enum):
    B = "B"
    BPRIME = "Bprime"


class DivisorClass:
    """A rational divisor class on one of the two surfaces.

    The class is stored as integer numerators ``num`` over one positive
    common denominator ``den``, in lowest terms, so arithmetic, comparison
    and the pairing run on ints.  ``coeffs`` gives the coefficients as
    Fractions, computed on each read.  An instance never changes once it is
    built; its hash is computed on first use and kept.
    """

    __slots__ = ("surface", "num", "den", "_hash")

    surface: Surface
    num: tuple[int, ...]
    den: int

    def __init__(self, surface: Surface, coeffs: Iterable) -> None:
        fracs = tuple(c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs)
        if len(fracs) != RANK:
            raise ValueError(f"expected {RANK} coefficients, got {len(fracs)}")
        # over the lcm of reduced denominators the numerators are coprime to it
        den = lcm(*(c.denominator for c in fracs))
        _fill(self, surface, tuple(c.numerator * (den // c.denominator) for c in fracs), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _from_ints, (self.surface, self.num, self.den)

    def __repr__(self) -> str:
        return f"DivisorClass(surface={self.surface!r}, coeffs={self.coeffs!r})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not DivisorClass:
            return NotImplemented
        return self.surface is other.surface and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", hash((self.surface, self.num, self.den)))
            return self._hash

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return combination(self.surface, ((1, self), (1, other)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return combination(self.surface, ((1, self), (-1, other)))

    def __neg__(self) -> "DivisorClass":
        return combination(self.surface, ((-1, self),))

    def __mul__(self, scalar) -> "DivisorClass":
        return combination(self.surface, ((scalar, self),))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def __str__(self) -> str:
        return join_terms([name if c == 1 else "-" + name if c == -1 else f"{c}*{name}"
                           for name, c in zip(BASIS, self.coeffs) if c])


def join_terms(terms: Sequence[str]) -> str:
    """Signed terms joined as "a + b - c"; a term that starts with "-" is
    subtracted, and no terms read "0"."""
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


_set = object.__setattr__


def _fill(obj: DivisorClass, surface: Surface, num: tuple[int, ...], den: int) -> None:
    _set(obj, "surface", surface)
    _set(obj, "num", num)
    _set(obj, "den", den)


def _from_ints(surface: Surface, num: tuple[int, ...], den: int) -> DivisorClass:
    """The class num/den, brought to lowest terms; den must be positive."""
    g = gcd(den, *num)
    if g != 1:
        num = tuple(x // g for x in num)
        den //= g
    obj = object.__new__(DivisorClass)
    _fill(obj, surface, num, den)
    return obj


def _mismatch(a: Surface, b: Surface) -> SurfaceMismatchError:
    return SurfaceMismatchError(f"classes live on different surfaces: {a.value} vs {b.value}")


def zero_class(surface: Surface) -> DivisorClass:
    return _from_ints(surface, (0,) * RANK, 1)


def basis_class(surface: Surface, name: str) -> DivisorClass:
    idx = BASIS.index(name)
    return _from_ints(surface, tuple(int(i == idx) for i in range(RANK)), 1)


def int_pairing(x: Sequence[int], y: Sequence[int]) -> int:
    """The intersection form diag(1, -1, ..., -1) on int coordinate vectors."""
    return x[0] * y[0] - sum(map(mul, x[1:], y[1:]))


def intersect(a: DivisorClass, b: DivisorClass) -> Fraction:
    """Intersection number of two classes on the same surface."""
    if a.surface is not b.surface:
        raise _mismatch(a.surface, b.surface)
    return Fraction(int_pairing(a.num, b.num), a.den * b.den)


def combination(surface: Surface, terms: Iterable[tuple[object, DivisorClass]]) -> DivisorClass:
    """The sum of coeff * cls over the (coeff, cls) terms for rational
    coeffs, in one pass over the lcm of the denominators."""
    scaled, common = [], 1
    for coeff, cls in terms:
        if cls.surface is not surface:
            raise _mismatch(surface, cls.surface)
        c = coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff)
        q = c.denominator * cls.den
        scaled.append((c.numerator, q, cls.num))
        common = lcm(common, q)
    acc = [0] * RANK
    for p, q, num in scaled:
        if p:
            s = p * (common // q)
            acc = [a + s * x for a, x in zip(acc, num)]
    return _from_ints(surface, tuple(acc), common)


def _build_named(surface: Surface) -> dict[str, DivisorClass]:
    l = basis_class(surface, "l")
    e = {i: basis_class(surface, f"e{i}") for i in range(1, 10)}
    f = 3 * l - sum(e.values(), zero_class(surface))
    n1 = e[8] - e[9]
    o2 = e[7] + e[8] + e[9] + f - l
    named = {
        "l": l,
        **{f"e{i}": e[i] for i in range(1, 10)},
        "f": f,
        "e": e[9],  # the zero section
        "zeta": e[1],  # the auxiliary section of the polarization frame
        "n1": n1,
        "o1": f - n1,
        "o2": o2,
        "n2": f - o2,
        "xi": e[4] - e[5] + e[9] + f,
        "m1": e[4] - e[5],
        "m2": e[4] - e[6],
        "m3": 3 * l - 2 * (e[4] + e[5] + e[6]) - 3 * e[7],
    }
    return named


_NAMED = {surface: _build_named(surface) for surface in Surface}
NAMED_CLASS_NAMES = tuple(_NAMED[Surface.B])


def named_class(surface: Surface, name: str) -> DivisorClass:
    """One of the distinguished classes (fiber, sections, I2 components, ...)."""
    try:
        return _NAMED[surface][name]
    except KeyError:
        raise ValueError(f"unknown class name {name!r}; known: {', '.join(NAMED_CLASS_NAMES)}") from None


def named_combination(surface: Surface, terms: dict[str, object]) -> DivisorClass:
    """Linear combination of named classes, e.g. {"e": 1, "zeta": 1, "f": 5}."""
    return combination(surface, [(c, named_class(surface, name)) for name, c in terms.items()])


# The fixed combinations on B' that the twist parametrization, the Hecke
# corrections and the m-space check use: the section sum e' + zeta' and the
# I2 component sum n1' + o2'.
SECTION_SUM = named_combination(Surface.BPRIME, {"e": 1, "zeta": 1})
COMPONENT_SUM = named_combination(Surface.BPRIME, {"n1": 1, "o2": 1})

PairingMatrix = tuple[tuple[Fraction, ...], ...]


def pairing_table(classes: Sequence[DivisorClass]) -> PairingMatrix:
    """Symmetric matrix of pairwise intersection numbers."""
    return tuple(tuple(intersect(a, b) for b in classes) for a in classes)


# === coordinates in a fixed frame of named classes ===


class Frame:
    """Coordinates against linearly independent named classes b_1..b_r.

    A dual basis w_1..w_r with b_i . w_j = delta_ij is solved for once, so
    the coordinates of a class d in the span are its pairings d . w_j.  Any
    d pairs to some coordinates; d lies in the span exactly when the class
    they rebuild equals d.  Works on either surface: both share the basis.
    """

    def __init__(self, names: tuple[str, ...]) -> None:
        self._names = names
        basis = [named_class(Surface.B, n) for n in names]
        rows = [[g * c for g, c in zip(GRAM_DIAG, b.coeffs)] for b in basis]
        dual = []
        for j in range(len(basis)):
            w = linalg.solve_rational(rows, [int(i == j) for i in range(len(basis))])
            if w is None:
                raise ArithmeticError(f"frame {names} is linearly dependent")
            dual.append(w)
        # int pairing vectors: the dual vectors times the sign pattern and
        # their common denominator; named classes are integral, so the
        # frame's columns are their numerators
        self._den = lcm(*(c.denominator for w in dual for c in w))
        self._pairings = tuple(
            tuple(int(g * c * self._den) for g, c in zip(GRAM_DIAG, w)) for w in dual
        )
        self._columns = tuple(zip(*(b.num for b in basis)))

    def coordinates(self, d: DivisorClass) -> tuple[Fraction, ...] | None:
        """Coordinates of d in the frame, or None if d is outside its span."""
        x = d.num
        p = [sum(map(mul, x, w)) for w in self._pairings]
        for xk, col in zip(x, self._columns):
            if sum(map(mul, p, col)) != self._den * xk:
                return None
        den = d.den * self._den
        return tuple(Fraction(pj, den) for pj in p)

    def require(self, d: DivisorClass) -> tuple[Fraction, ...]:
        """Coordinates of d in the frame; SpanError if d is outside its span."""
        coords = self.coordinates(d)
        if coords is None:
            raise SpanError(f"divisor {d} lies outside span{{{', '.join(self._names)}}}")
        return coords


FXI_FRAME = Frame(("f", "e1", "xi"))
EF_FRAME = Frame(("e", "f"))
M_FRAME = Frame(("m1", "m2", "m3"))


# === the (f, e1, xi) polarization frame ===


def fxi_coordinates(d: DivisorClass) -> tuple[Fraction, Fraction, Fraction] | None:
    """Coordinates (a, b, c) with d = a*f + b*e1 + c*xi, or None if outside."""
    return FXI_FRAME.coordinates(d)


@dataclass(frozen=True)
class AmplenessCertificate:
    """Positivity witnesses for h = a*f + b*e1 + c*xi.

    The witnesses are the pairings against the extremal curve classes of the
    frame plus the self-intersection; h is ample iff every witness is
    positive, which happens exactly when a, b, c > 0 and a > |b - c|.
    """

    ample: bool
    pairing_e1: Fraction
    pairing_xi: Fraction
    pairing_f: Fraction
    pairing_n: Fraction
    pairing_o: Fraction
    self_intersection: Fraction

    def witnesses(self) -> tuple[Fraction, ...]:
        return (
            self.pairing_e1,
            self.pairing_xi,
            self.pairing_f,
            self.pairing_n,
            self.pairing_o,
            self.self_intersection,
        )


def is_ample_fxi(a: int, b: int, c: int) -> AmplenessCertificate:
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    cert = AmplenessCertificate(
        ample=bool(a > 0 and b > 0 and c > 0 and a > abs(b - c)),
        pairing_e1=a - b + c,
        pairing_xi=a + b - c,
        pairing_f=b + c,
        pairing_n=c,
        pairing_o=b,
        self_intersection=2 * (a * b + a * c + b * c) - b * b - c * c,
    )
    # the two characterizations agree; keep them cross-checked
    if cert.ample != all(w > 0 for w in cert.witnesses()):
        raise ArithmeticError("ampleness closed form disagrees with its witnesses")
    return cert


# === effectivity descent in the (e1, xi, f) span ===

NOT_EFFECTIVE = "not-effective"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DescentStep:
    subtracted: str
    result: DivisorClass


@dataclass(frozen=True)
class DescentCertificate:
    start: DivisorClass
    steps: tuple[DescentStep, ...]
    terminal: DivisorClass
    verdict: str


def descent_not_effective(d: DivisorClass) -> DescentCertificate:
    """Decide non-effectivity of d = A*e1 + B*xi + C*f by descent.

    Subtracting an irreducible class of negative self-intersection that pairs
    negatively with d preserves effectivity, so once the fiber pairing goes
    negative the original class cannot have been effective.  Requires integer
    coordinates in the (e1, xi, f) span.
    """
    coords = FXI_FRAME.require(d)
    if any(c.denominator != 1 for c in coords):
        raise ValueError("descent requires integer coordinates in the (e1, xi, f) span")

    e1, xi, f = (named_class(d.surface, n) for n in ("e1", "xi", "f"))
    steps: list[DescentStep] = []
    current = d
    while True:
        if intersect(current, f) < 0:
            verdict = NOT_EFFECTIVE
            break
        if intersect(current, xi) < 0:
            current = current - xi
            steps.append(DescentStep("xi", current))
            continue
        if intersect(current, e1) < 0:
            current = current - e1
            steps.append(DescentStep("e1", current))
            continue
        verdict = INCONCLUSIVE
        break
    return DescentCertificate(start=d, steps=tuple(steps), terminal=current, verdict=verdict)


# === integral points on affine subspaces ===


@dataclass(frozen=True)
class IntegralPointResult:
    """Outcome of the integral-point decision for offset + span_Q(...).

    When no integral point exists, ``obstruction`` is an integer functional
    (coordinate vector) vanishing on the span whose value on the offset is
    not an integer.  When one exists, ``point`` is an explicit integral
    representative.
    """

    exists: bool
    point: DivisorClass | None
    obstruction: tuple[int, ...] | None
    obstruction_value: Fraction | None


def _default_obstruction_offset() -> DivisorClass:
    return Fraction(-1, 2) * named_class(Surface.B, "e1")


def _default_obstruction_span() -> tuple[DivisorClass, ...]:
    n = lambda name: named_class(Surface.B, name)
    return (
        n("f"),
        n("e9"),
        n("e4") - n("e5"),
        n("e4") - n("e6"),
        n("m3"),
        n("l") - n("e7") - 2 * n("e8"),
    )


def invariant_subspace_has_integral_point(
    offset: DivisorClass | None = None,
    span: Iterable[DivisorClass] | None = None,
) -> IntegralPointResult:
    """Decide whether offset + span_Q(...) meets the integer lattice.

    Defaults to the subspace of involution-invariant classes that the
    bundle-existence obstruction lives on.  A point t lies in Z^10 + V
    exactly when every integer functional vanishing on V takes an integer
    value on t; the functionals are enumerated through a saturated basis of
    the annihilator lattice, so the criterion is complete in both directions.
    """
    t = offset if offset is not None else _default_obstruction_offset()
    vectors = tuple(span) if span is not None else _default_obstruction_span()
    for v in vectors:
        if v.surface is not t.surface:
            raise _mismatch(t.surface, v.surface)

    rows = [list(v.coeffs) for v in vectors]
    annihilators = linalg.kernel_integer(rows) if rows else [
        [int(i == j) for j in range(RANK)] for i in range(RANK)
    ]
    for w in annihilators:
        value = linalg.dot(w, t.coeffs)
        if value.denominator != 1:
            return IntegralPointResult(
                exists=False,
                point=None,
                obstruction=tuple(w),
                obstruction_value=value,
            )
    if not annihilators:  # the span is everything: any integral class lies on it
        point = zero_class(t.surface)
    else:
        target = [int(linalg.dot(w, t.coeffs)) for w in annihilators]
        solution = linalg.solve_integer(annihilators, target)
        if solution is None:
            raise ArithmeticError("a saturated annihilator basis must map Z^10 onto Z^r")
        point = DivisorClass(t.surface, tuple(Fraction(x) for x in solution))
    return IntegralPointResult(exists=True, point=point, obstruction=None, obstruction_value=None)


# === the m-class subspace ===


def m_space_check(m: DivisorClass) -> bool:
    """Whether m lies in span_Q{m1, m2, m3}, decided by the frame alone.

    m1, m2 and m3 pair to zero with the section sum, the fiber and the I2
    component sum, so by bilinearity every class of their span does too.
    """
    if m.surface is not Surface.BPRIME:
        raise SurfaceMismatchError("m-space classes live on the second surface")
    return M_FRAME.coordinates(m) is not None
