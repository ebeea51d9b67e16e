"""Threefold characters, restricted products, and Hecke correction patterns."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellspec.errors import SpanError, UnsupportedProductError
from ellspec.hecke import (
    HeckeMultiplicities,
    hecke_pattern_ch,
    hecke_single_correction,
    means_gap,
    newton_sum,
)
from ellspec.lattice import Surface, named_class, named_combination, zero_class
from ellspec.spectral import ChernB, SpectralParams, spectral_ch
from ellspec.threefold import ChernX, pullback_from_b, pullback_line_bundle_ch

B, BP = Surface.B, Surface.BPRIME
E = named_class(B, "e")
F = named_class(B, "f")
FP = named_class(BP, "f")


def vertical(rank=0, bp=None, fpt=0, ptf=0, h6=0):
    return ChernX(rank, zero_class(B), bp if bp is not None else zero_class(BP), fpt, ptf, h6)


# === canonical form and pullbacks ===


def test_canonical_form_moves_fiber_part():
    c = ChernX(1, 2 * E + 3 * F, zero_class(BP), 0, 0, 0)
    assert c.c1_b == 2 * E
    assert c.c1_bp == 3 * FP


def test_canonical_form_rejects_off_span():
    with pytest.raises(SpanError, match=r"^divisor e2 lies outside span\{e, f\}$"):
        ChernX(1, named_class(B, "e2"), zero_class(BP), 0, 0, 0)


def test_equal_characters_after_canonicalization():
    via_b = ChernX(0, 5 * F, zero_class(BP), 0, 0, 0)
    via_bp = ChernX(0, zero_class(B), 5 * FP, 0, 0, 0)
    assert via_b == via_bp


def test_pullback_from_b():
    w = spectral_ch(SpectralParams(2, 3, 10))  # 2 + 5f - 3pt
    c = pullback_from_b(w)
    assert c.rank == 2
    assert c.c1_b.is_zero
    assert c.c1_bp == 5 * FP
    assert (c.h4_fpt, c.h4_ptf, c.h6) == (0, -3, 0)


def test_pullback_line_bundle():
    lcls = named_combination(BP, {"e": 3, "zeta": 3, "m1": 3})
    c = pullback_line_bundle_ch(lcls)
    assert c.rank == 1
    assert c.c1_bp == lcls
    assert c.h4_fpt == Fraction(-36, 2)
    assert (c.h4_ptf, c.h6) == (0, 0)


def test_c1_parts_must_live_on_their_surfaces():
    with pytest.raises(ValueError, match="c1 parts"):
        ChernX(1, zero_class(BP), zero_class(BP), 0, 0, 0)
    with pytest.raises(ValueError, match="c1 parts"):
        ChernX(1, zero_class(B), zero_class(B), 0, 0, 0)


def test_line_bundle_pullback_needs_a_class_on_b_prime():
    with pytest.raises(ValueError, match="on B'"):
        pullback_line_bundle_ch(F)


def test_only_the_product_multiplies():
    c = vertical(rank=1, bp=FP)
    for bad in (lambda: 2 * c, lambda: c * 2, lambda: c - c):
        with pytest.raises(TypeError):
            bad()


# === product rules on the vertical fragment ===


def test_product_two_pullback_divisors():
    a = named_combination(BP, {"e": 1, "zeta": 1})
    b = named_combination(BP, {"n1": 1, "o2": 1})
    x, y = vertical(bp=a), vertical(bp=b)
    p = x * y
    assert p.h4_fpt == 2  # (a.b) f x pt
    assert p.rank == 0 and p.c1_bp.is_zero and p.h4_ptf == 0 and p.h6 == 0


def test_product_divisor_with_point_fiber_classes():
    b = named_combination(BP, {"e": 2, "f": 1})
    assert (vertical(bp=b) * vertical(fpt=1)).h6 == 0
    assert (vertical(bp=b) * vertical(ptf=1)).h6 == 2  # (b.f') pt


def test_product_rejects_section_direction():
    with_section = ChernX(1, E, zero_class(BP), 0, 0, 0)
    with pytest.raises(UnsupportedProductError):
        with_section * vertical(rank=1)


def test_line_bundle_multiplicativity():
    l1 = named_combination(BP, {"e": 1, "f": 2})
    l2 = named_combination(BP, {"zeta": 1, "m1": -1})
    lhs = pullback_line_bundle_ch(l1) * pullback_line_bundle_ch(l2)
    rhs = pullback_line_bundle_ch(l1 + l2)
    assert lhs == rhs


small_vertical = st.builds(
    vertical,
    rank=st.integers(min_value=-2, max_value=3),
    bp=st.builds(
        lambda a, b, c: named_combination(BP, {"e": a, "f": b, "n1": c}),
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=-2, max_value=2),
    ),
    fpt=st.integers(min_value=-3, max_value=3),
    ptf=st.integers(min_value=-3, max_value=3),
    h6=st.integers(min_value=-3, max_value=3),
)


@settings(max_examples=100)
@given(small_vertical, small_vertical)
def test_product_commutative(x, y):
    assert x * y == y * x


@settings(max_examples=100)
@given(small_vertical, small_vertical, small_vertical)
def test_product_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@settings(max_examples=100)
@given(small_vertical, small_vertical, small_vertical)
def test_product_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


# === Hecke corrections ===


def test_newton_sums():
    assert newton_sum([], 1) == 0
    assert newton_sum([], 2) == 0
    assert newton_sum([1, 2, 3], 1) == 6
    assert newton_sum([1, 2, 3], 2) == 14


def test_newton_sum_rejects_a_negative_exponent():
    with pytest.raises(ValueError):
        newton_sum([1], -1)


def test_single_correction():
    c = pullback_from_b(spectral_ch(SpectralParams(2, 3, 10)))
    corrected = hecke_single_correction(c, 3, "n1")
    assert corrected.c1_bp == 5 * FP - 3 * named_class(BP, "n1")
    assert corrected.h4_fpt == -9
    assert (corrected.rank, corrected.h4_ptf, corrected.h6) == (2, -3, 0)
    with pytest.raises(ValueError):
        hecke_single_correction(c, 1, "o1")


def test_pattern_zero_multiplicities():
    w = spectral_ch(SpectralParams(2, 3, 10))
    c = hecke_pattern_ch(w, HeckeMultiplicities(2, (0, 0)))
    assert c.rank == 2
    assert c.c1_bp == 5 * FP
    assert (c.h4_fpt, c.h4_ptf, c.h6) == (0, -3, 0)


def test_pattern_unit_multiplicities():
    w = spectral_ch(SpectralParams(2, 3, 10))
    c = hecke_pattern_ch(w, HeckeMultiplicities(2, (1, 1)))
    comps = named_combination(BP, {"n1": 1, "o2": 1})
    assert c.c1_bp == 5 * FP - 2 * comps
    assert c.h4_fpt == -4


def test_pattern_single_point_multiplicity_two():
    w = spectral_ch(SpectralParams(2, 3, 10))
    c = hecke_pattern_ch(w, [2])
    comps = named_combination(BP, {"n1": 1, "o2": 1})
    assert c.c1_bp == 5 * FP - 2 * comps
    assert c.h4_fpt == -8


def _telescoped(w, a):
    """Independent oracle: elementary steps along both fiber components.

    The n-th elementary step at one point along one component subtracts the
    component class in H^2 and 2n - 1 on f x pt.
    """
    c = pullback_from_b(w)
    for comp_name in ("n1", "o2"):
        comp = named_class(BP, comp_name)
        for point_mult in a:
            for step in range(1, point_mult + 1):
                c = ChernX(
                    c.rank,
                    c.c1_b,
                    c.c1_bp - comp,
                    c.h4_fpt - (2 * step - 1),
                    c.h4_ptf,
                    c.h6,
                )
    return c


def test_pattern_matches_telescoped_steps():
    w = spectral_ch(SpectralParams(3, 6, 10))
    for length in (1, 2, 3):
        for a in product(range(5), repeat=length):
            assert hecke_pattern_ch(w, a) == _telescoped(w, a), a


def test_multiplicity_validation():
    with pytest.raises(ValueError):
        HeckeMultiplicities(4, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        HeckeMultiplicities(2, (1,))
    with pytest.raises(ValueError):
        HeckeMultiplicities(2, (-1, 1))
    with pytest.raises(ValueError):
        hecke_pattern_ch(spectral_ch(SpectralParams(2, 3, 10)), [-1, 2])


@pytest.mark.parametrize("a", [
    (Fraction(1, 2), Fraction(5, 2)), (0.9, 0.9), (1, 1.5), (Fraction(-1, 2), 0),
    (float("inf"), 0), (0, float("-inf")), (float("nan"), 1),
])
def test_non_integral_multiplicities_are_rejected_not_truncated(a):
    with pytest.raises(ValueError, match="multiplicities must be integers"):
        HeckeMultiplicities(2, a)
    with pytest.raises(ValueError, match="multiplicities must be integers"):
        hecke_pattern_ch(spectral_ch(SpectralParams(2, 3, 10)), a)


@pytest.mark.parametrize("a", [
    [1.9], [0, 2.5, 1], [Fraction(7, 3)], [float("inf")], [0, float("-inf"), 1], [float("nan")],
])
def test_pattern_rejects_non_integral_lists_of_any_length(a):
    with pytest.raises(ValueError, match="multiplicities must be integers"):
        hecke_pattern_ch(spectral_ch(SpectralParams(2, 3, 10)), a)


@pytest.mark.parametrize("a", [(Fraction(2), 1.0), (True, 0), [2.0, 0]])
def test_integral_multiplicities_of_any_number_type_become_ints(a):
    stored = HeckeMultiplicities(2, a).a
    assert stored == tuple(a) and all(type(x) is int for x in stored)
    w = spectral_ch(SpectralParams(2, 3, 10))
    assert hecke_pattern_ch(w, a) == hecke_pattern_ch(w, stored)


@pytest.mark.parametrize("a", [(-1, 1), (Fraction(-2), 0), (0, -3.0)])
def test_negative_multiplicities_keep_their_message(a):
    with pytest.raises(ValueError, match="multiplicities must be nonnegative"):
        HeckeMultiplicities(2, a)
    with pytest.raises(ValueError, match="multiplicities must be nonnegative"):
        hecke_pattern_ch(spectral_ch(SpectralParams(2, 3, 10)), a)


# === means gap ===


def test_means_gap_example():
    assert means_gap(2, [0, 2]) == -4


def test_means_gap_length_check():
    with pytest.raises(ValueError):
        means_gap(2, [1, 2, 3])


def test_means_gap_sign_and_equality():
    for i in (2, 3):
        for a in product(range(7), repeat=i):
            gap = means_gap(i, a)
            if len(set(a)) == 1:
                assert gap == 0, a
            else:
                assert gap < 0, a
