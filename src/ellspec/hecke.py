"""Hecke-type corrections to pulled-back spectral characters.

A spectral character on B pulls back to the threefold and is then modified
along the two components n1', o2' of the reducible fiber over each of the
chosen points of the pencil base.  A single correction by a classes along one
component subtracts a * pi*(component) in H^2 and a^2 on f x pt in H^4; a
pattern of multiplicities applies one correction per point along both
components, so only the first two Newton power sums of the multiplicity list
enter the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .lattice import COMPONENT_SUM, Surface, named_class
from .linalg import integers
from .spectral import ChernB
from .threefold import ChernX, pullback_from_b

_COMPONENTS = ("n1", "o2")


def _multiplicities(a: Sequence) -> tuple[int, ...]:
    """The list as ints, a tuple of exact ints >= 0 kept as it is; a
    non-integral or negative entry is a ValueError."""
    if a.__class__ is tuple:
        for x in a:
            if x.__class__ is not int or x < 0:
                break
        else:
            return a
    ints = integers(a, "multiplicities")
    if ints and min(ints) < 0:
        raise ValueError("multiplicities must be nonnegative")
    return ints


def multiplicities(i: int, a: Sequence) -> tuple[int, ...]:
    """The checked multiplicities of a rank-i component: i integers >= 0."""
    ints = _multiplicities(a)
    if i not in (2, 3):
        raise ValueError("component rank i must be 2 or 3")
    if len(ints) != i:
        raise ValueError(f"expected {i} multiplicities, got {len(ints)}")
    return ints


@dataclass(frozen=True)
class HeckeMultiplicities:
    """Per-point correction multiplicities for one rank-i bundle component.

    The general two-chain data folds to a single list: with the second chain
    ending at zero, its multiplicities are determined by the first.
    """

    i: int
    a: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", multiplicities(self.i, self.a))


def newton_sum(a: Sequence[int], alpha: int) -> Fraction:
    """Power sum of the multiplicity list; zero for the empty list."""
    if alpha < 0:
        raise ValueError("power sums of multiplicities need a nonnegative exponent")
    return Fraction(sum(x ** alpha for x in a))


def hecke_single_correction(c: ChernX, a: int, component: str) -> ChernX:
    """One correction of total multiplicity a along n1' or o2'."""
    if component not in _COMPONENTS:
        raise ValueError(f"component must be one of {_COMPONENTS}")
    comp = named_class(Surface.BPRIME, component)
    return ChernX(
        rank=c.rank,
        c1_b=c.c1_b,
        c1_bp=c.c1_bp - a * comp,
        h4_fpt=c.h4_fpt - Fraction(a) ** 2,
        h4_ptf=c.h4_ptf,
        h6=c.h6,
    )


def hecke_pattern_ch(w: ChernB, mult: Union[HeckeMultiplicities, Sequence[int]]) -> ChernX:
    """Pull back w and apply the correction pattern for a multiplicity list.

    Equivalent to chaining single corrections point by point along both
    components; the accumulated effect only sees the power sums S^1 and S^2.
    """
    a = mult.a if isinstance(mult, HeckeMultiplicities) else _multiplicities(mult)
    s1 = newton_sum(a, 1)
    s2 = newton_sum(a, 2)
    c = pullback_from_b(w)
    return ChernX(
        rank=c.rank,
        c1_b=c.c1_b,
        c1_bp=c.c1_bp - s1 * COMPONENT_SUM,
        h4_fpt=c.h4_fpt - 2 * s2,
        h4_ptf=c.h4_ptf,
        h6=c.h6,
    )


def means_gap(i: int, a: Sequence[int]) -> Fraction:
    """(2/i) (S^1)^2 - 2 S^2: nonpositive, zero iff the list is constant."""
    if len(a) != i:
        raise ValueError(f"expected a list of length {i}")
    s1 = newton_sum(a, 1)
    s2 = newton_sum(a, 2)
    return Fraction(2, i) * s1 * s1 - 2 * s2
