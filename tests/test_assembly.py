"""Bundle assembly: component characters, totals, and the constraint system."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellspec.assembly import (
    DEFAULT_HPRIME,
    BundleParams,
    ch_component,
    ch_total,
    default_polarization,
    evaluate_constraints,
    ext_lower_bound,
    polarization_class,
    spectral_input,
)
from ellspec.errors import PolarizationError
from ellspec.hecke import hecke_pattern_ch
from ellspec.lattice import Surface, fxi_coordinates, named_class, named_combination
from ellspec.spectral import spectral_ch
from ellspec.threefold import pullback_line_bundle_ch

BP = Surface.BPRIME
FP = named_class(BP, "f")


def golden_params(d2=10, d3=10):
    return BundleParams(
        k2=3,
        k3=6,
        d2=d2,
        d3=d3,
        a2=(0, 0),
        a3=(0, 0, 0),
        l2=named_combination(BP, {"e": 3, "zeta": 3, "m1": 3}),
        l3=named_combination(BP, {"e": -2, "zeta": -2, "m1": -2}),
    )


# === frozen component characters for the worked assembly ===


def test_rank2_component_frozen():
    c = ch_component(2, golden_params())
    assert c.rank == 2
    assert c.c1_bp == named_combination(BP, {"e": 6, "zeta": 6, "m1": 6, "f": 5})
    assert (c.h4_fpt, c.h4_ptf) == (-6, -3)
    assert c.h6 == -18


def test_rank3_component_frozen():
    c = ch_component(3, golden_params())
    assert c.rank == 3
    assert c.c1_bp == named_combination(BP, {"e": -6, "zeta": -6, "m1": -6, "f": -5})
    assert (c.h4_fpt, c.h4_ptf) == (-4, -6)
    assert c.h6 == 24


def test_total_character_frozen():
    c = ch_total(golden_params())
    assert c.rank == 5
    assert c.c1_b.is_zero and c.c1_bp.is_zero
    assert (c.h4_fpt, c.h4_ptf) == (-10, -9)
    assert c.h6 == 6


def test_component_accessor_validation():
    with pytest.raises(ValueError):
        ch_component(4, golden_params())
    with pytest.raises(ValueError):
        BundleParams(3, 6, 10, 10, (0,), (0, 0, 0), FP, FP)
    with pytest.raises(ValueError):
        BundleParams(3, 6, 10, 10, (0, 0), (0, 0, 0), named_class(Surface.B, "f"), FP)


# === the product-rule oracle ===


def oracle_component(i, p):
    """Independent route: Hecke-corrected pullback times the twist."""
    k, d, a, lcls = p.component(i)
    base = hecke_pattern_ch(spectral_ch(spectral_input(i, p)), a)
    return base * pullback_line_bundle_ch(lcls)


def test_components_match_product_oracle_on_golden():
    p = golden_params()
    for i in (2, 3):
        assert ch_component(i, p) == oracle_component(i, p)


twist_classes = st.builds(
    lambda a, b, c, d: named_combination(BP, {"e": a, "zeta": a, "f": b, "n1": c, "o2": c, "m1": d}),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-3, max_value=3),
)


@settings(max_examples=200)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=3, max_value=9),
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-12, max_value=12),
    st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)),
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    ),
    twist_classes,
    twist_classes,
)
def test_components_match_product_oracle(k2, k3, d2, d3, a2, a3, l2, l3):
    p = BundleParams(k2, k3, d2, d3, a2, a3, l2, l3)
    for i in (2, 3):
        assert ch_component(i, p) == oracle_component(i, p)


@settings(max_examples=100)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=3, max_value=9),
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-12, max_value=12),
    twist_classes,
    twist_classes,
)
def test_total_is_sum_of_components(k2, k3, d2, d3, l2, l3):
    p = BundleParams(k2, k3, d2, d3, (1, 2), (0, 1, 3), l2, l3)
    total = ch_total(p)
    assert total == ch_component(2, p) + ch_component(3, p)
    assert total.rank == 5
    assert total.h4_ptf == -(k2 + k3)


# === constraint evaluation on the worked assembly ===


def test_default_polarization_is_the_stock_triple():
    assert DEFAULT_HPRIME == (25, 144, 168)
    expected = named_combination(BP, {"f": 25, "e1": 144, "xi": 168})
    assert default_polarization() == polarization_class(DEFAULT_HPRIME) == expected
    assert fxi_coordinates(polarization_class((1, 2, 3))) == (1, 2, 3)


def test_golden_report_passes_everything():
    report = evaluate_constraints(golden_params(), default_polarization())
    assert report.all_pass
    assert report.entry("S_e").value == 10
    assert report.entry("S_s").value == -12
    assert report.entry("C1").residual.is_zero
    assert report.entry("C2_f").value == 3
    assert report.entry("C2_fprime").value == 2
    assert report.entry("C3").value == 0
    assert report.c2_deficit == (2, 3)
    assert report.c2_deficit_effective
    assert report.c3 == 12
    assert report.nonsplit and report.slope_negative


def test_slope_value_matches_obstruction_pairing():
    # the slope class for the worked assembly is 6 e1' + 6 xi' - f', and its
    # pairing against a f' + b e1' + c xi' is 12 a - (b + c)
    report = evaluate_constraints(golden_params(), default_polarization())
    assert report.entry("S_s").value == 12 * 25 - (144 + 168)


def test_bad_d3_fails_integrality():
    report = evaluate_constraints(golden_params(d3=11), default_polarization())
    assert not report.entry("integrality").passes
    detail = dict(report.entry("integrality").detail)
    assert not detail["d3_mod_3_is_1"]


def test_small_ample_polarization_fails_slope():
    # (1, 1, 1) is ample but the slope check fails: 12*1 - (1+1) = +10
    hprime = named_combination(BP, {"f": 1, "e1": 1, "xi": 1})
    report = evaluate_constraints(golden_params(), hprime)
    assert report.entry("S_s").value == 10
    assert not report.entry("S_s").passes
    assert not report.all_pass


def test_non_ample_polarization_raises():
    hprime = named_combination(BP, {"f": 1, "e1": 3, "xi": 1})
    with pytest.raises(PolarizationError):
        evaluate_constraints(golden_params(), hprime)


def test_unverified_polarization_flag():
    hprime = named_combination(BP, {"f": 1, "e1": 3, "xi": 1})
    report = evaluate_constraints(golden_params(), hprime, hprime_unverified=True)
    assert any("not certified ample" in note for note in report.notes)
    assert report.entry("S_s").value == 12 * 1 - (3 + 1)
    assert not report.entry("S_s").passes
    assert not report.all_pass


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
)
def test_slope_pairing_grid(a, b, c):
    """For the worked assembly the slope pairing is 12a - (b + c) on the
    whole polarization grid."""
    hprime = named_combination(BP, {"f": a, "e1": b, "xi": c})
    report = evaluate_constraints(
        golden_params(), hprime, hprime_unverified=True
    )
    assert report.entry("S_s").value == 12 * a - (b + c)


# === dimension bookkeeping ===


def test_ext_lower_bound_values():
    assert ext_lower_bound(3, 6, 6, -4) == 150
    assert ext_lower_bound(2, 4, 9, -6) == 120
