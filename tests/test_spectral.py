"""Spectral characters on the base surface and their transform."""

from fractions import Fraction

import pytest

from ellspec.errors import SpanError
from ellspec.lattice import Surface, named_class
from ellspec.spectral import (
    ChernB,
    LinearSystemDims,
    SpectralParams,
    curve_pushforward_ch,
    fourier_mukai_b,
    linear_system_dims,
    smooth_invariant_exists,
    spectral_ch,
    spectral_genus,
)

E = named_class(Surface.B, "e")
F = named_class(Surface.B, "f")


def test_transform_of_section_class():
    out = fourier_mukai_b(ChernB(0, E, 0))
    assert out.rank == 1
    assert out.div == Fraction(-1, 2) * F
    assert out.pt == 0


def test_transform_of_fiber_class():
    out = fourier_mukai_b(ChernB(0, F, 0))
    assert out.rank == 0
    assert out.div.is_zero
    assert out.pt == -1


def test_transform_of_point():
    out = fourier_mukai_b(ChernB(0, 0 * F, 1))
    assert out.rank == 0
    assert out.div == F
    assert out.pt == 0


def test_character_divisor_must_live_on_b():
    with pytest.raises(ValueError, match="on B"):
        ChernB(0, named_class(Surface.BPRIME, "f"), 0)


def test_characters_on_b_do_not_add():
    with pytest.raises(TypeError):
        ChernB(0, E, 0) + ChernB(0, F, 0)
    with pytest.raises(TypeError):
        ChernB(0, E, 0) - ChernB(0, F, 0)


def test_transform_rejects_nonzero_rank():
    with pytest.raises(ValueError):
        fourier_mukai_b(ChernB(1, 0 * F, 0))


def test_transform_rejects_off_span_support():
    with pytest.raises(SpanError, match=r"^divisor e2 lies outside span\{e, f\}$"):
        fourier_mukai_b(ChernB(0, named_class(Surface.B, "e2"), 0))


def test_curve_pushforward_examples():
    c = curve_pushforward_ch(SpectralParams(2, 3, 10))
    assert c.rank == 0
    assert c.div == 2 * E + 3 * F
    assert c.pt == 6  # d - 4 at d = 10

    c = curve_pushforward_ch(SpectralParams(3, 6, 0))
    assert c.pt == Fraction(-27, 2)

    c = curve_pushforward_ch(SpectralParams(1, 0, 0))
    assert c.div == E
    assert c.pt == Fraction(1, 2)


def test_spectral_ch_examples():
    c = spectral_ch(SpectralParams(2, 3, 10))
    assert (c.rank, c.div, c.pt) == (2, 5 * F, -3)

    c = spectral_ch(SpectralParams(3, 6, 10))
    assert (c.rank, c.div, c.pt) == (3, -5 * F, -6)


def test_spectral_ch_equals_transformed_pushforward():
    for r in range(1, 6):
        for m in range(0, 13):
            for d in range(-20, 21):
                p = SpectralParams(r, m, d)
                via_transform = fourier_mukai_b(curve_pushforward_ch(p))
                closed = spectral_ch(p)
                assert via_transform == closed, (r, m, d)


def test_spectral_params_validation():
    with pytest.raises(ValueError):
        SpectralParams(0, 1, 1)


def test_spectral_genus_values():
    assert spectral_genus(2, 2) == 2
    assert spectral_genus(3, 6) == 13
    assert spectral_genus(2, 3) == 4
    assert spectral_genus(1, 0) == 0


def test_spectral_genus_rejects_negative():
    with pytest.raises(ValueError):
        spectral_genus(3, 1)


def test_linear_system_dims():
    assert linear_system_dims(3, 6) == LinearSystemDims(16, 9, 7)
    assert linear_system_dims(2, 2) == LinearSystemDims(4, 3, 1)
    assert linear_system_dims(3, 3).h0 == 7
    assert linear_system_dims(1, 0) == LinearSystemDims(1, 1, 0)


def test_linear_system_dims_additivity():
    # h0 always splits as invariant + anti-invariant
    for r in (1, 2, 3):
        for k in range(0, 12):
            dims = linear_system_dims(r, k)
            assert dims.h0 == dims.invariant + dims.anti_invariant


def test_linear_system_dims_validation():
    with pytest.raises(ValueError):
        linear_system_dims(4, 2)
    with pytest.raises(ValueError):
        linear_system_dims(2, -1)


def test_smooth_invariant_exists():
    assert smooth_invariant_exists(3, 3)
    assert smooth_invariant_exists(3, 6)
    assert not smooth_invariant_exists(3, 2)
    assert smooth_invariant_exists(2, 2)
    assert not smooth_invariant_exists(2, 3)
    assert not smooth_invariant_exists(2, 1)
    with pytest.raises(ValueError):
        smooth_invariant_exists(1, 5)
