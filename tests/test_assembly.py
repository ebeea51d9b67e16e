"""Bundle assembly: component characters, totals, and the constraint system."""

import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellspec.assembly as assembly_module
from ellspec.assembly import (
    DEFAULT_HPRIME,
    BundleParams,
    ConstraintEntry,
    ConstraintReport,
    ch_component,
    ch_total,
    default_polarization,
    evaluate_constraints,
    ext_lower_bound,
    polarization_class,
    spectral_input,
)
from ellspec.errors import PolarizationError, SurfaceMismatchError
from ellspec.hecke import hecke_pattern_ch, newton_sum
from ellspec.lattice import (
    COMPONENT_SUM,
    DivisorClass,
    Surface,
    fxi_coordinates,
    intersect,
    is_ample_fxi,
    named_class,
    named_combination,
)
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


def _fractional(classes):
    """A twist class scaled by 1/q for q in {1, 2, 3, 6}."""
    return st.builds(
        lambda c, q: Fraction(1, q) * c, classes, st.sampled_from([1, 2, 3, 6])
    )


any_classes = st.builds(
    lambda cs: DivisorClass(BP, cs),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=10, max_size=10),
)
twists = _fractional(st.one_of(twist_classes, any_classes))


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
    twists,
    twists,
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


def test_report_entry_of_an_unknown_name_is_a_key_error():
    report = evaluate_constraints(golden_params(), default_polarization())
    with pytest.raises(KeyError):
        report.entry("nope")


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


@pytest.mark.parametrize("a2, a3", [
    ((0.9, 0.9), (0, 0, 0)), ((0, 0), (Fraction(1, 3), 0, 0)), ((Fraction(3, 2), 0), (0, 0, 0)),
])
def test_bundle_params_reject_non_integral_multiplicities(a2, a3):
    """Truncating (0.9, 0.9) to (0, 0) once gave a passing report."""
    golden = golden_params()
    with pytest.raises(ValueError, match="multiplicities must be integers"):
        BundleParams(3, 6, 10, 10, a2, a3, golden.l2, golden.l3)


def test_bundle_params_keep_a_tuple_of_exact_ints():
    golden = golden_params()
    a2, a3 = (1, 2), (0, 3, 0)
    params = BundleParams(3, 6, 10, 10, a2, a3, golden.l2, golden.l3)
    assert params.a2 is a2 and params.a3 is a3


@pytest.mark.parametrize("a2, a3", [
    ((True, 1), (0, 0, 0)), ((2.0, 0), (0, 0, 0)), ([1, 1], (0, 0, 0)),
    ((0, 0), (Fraction(3), False, 1.0)), ((0, 0), [0, 0, 0]),
], ids=["bool", "float", "list", "fraction-bool-float", "list-of-three"])
def test_bundle_params_normalize_integral_multiplicities(a2, a3):
    golden = golden_params()
    params = BundleParams(3, 6, 10, 10, a2, a3, golden.l2, golden.l3)
    assert (params.a2, params.a3) == (tuple(a2), tuple(a3))
    assert all(type(x) is int for x in params.a2 + params.a3)


@pytest.mark.parametrize("a2, a3, message", [
    ((-1, 1), (0, 0, 0), "multiplicities must be nonnegative"),
    ((0, 0), (0, -2.0, 0), "multiplicities must be nonnegative"),
    ((0, 0, 0), (0, 0, 0), "expected 2 multiplicities, got 3"),
    ((0, 0), (0, 0), "expected 3 multiplicities, got 2"),
    ((), (0, 0, 0), "expected 2 multiplicities, got 0"),
    ((0, 0.5), (0, 0, 0), "multiplicities must be integers"),
    ((0, 0), (0, 0, float("nan")), "multiplicities must be integers"),
], ids=["negative", "negative-float", "a2-too-long", "a3-too-short", "empty", "half", "nan"])
def test_bundle_params_reject_bad_multiplicities(a2, a3, message):
    golden = golden_params()
    with pytest.raises(ValueError, match=message):
        BundleParams(3, 6, 10, 10, a2, a3, golden.l2, golden.l3)


@pytest.mark.parametrize("field", ["k2", "k3", "d2", "d3"])
@pytest.mark.parametrize("value", [10.0, Fraction(10), True, "10"], ids=["float", "fraction", "bool", "str"])
def test_bundle_params_reject_non_int_degrees(field, value):
    """A float degree once built params whose report, verification and dump
    each failed later with a bare TypeError."""
    golden = golden_params()
    fields = {"k2": 3, "k3": 6, "d2": 10, "d3": 10, field: value}
    with pytest.raises(ValueError, match="^k2, k3, d2 and d3 must be ints$"):
        BundleParams(**fields, a2=(0, 0), a3=(0, 0, 0), l2=golden.l2, l3=golden.l3)


@pytest.mark.parametrize("change, message", [
    ({"k2": True}, "k2, k3, d2 and d3 must be ints"),
    ({"d3": 10.0}, "k2, k3, d2 and d3 must be ints"),
    ({"a2": (0, -1)}, "multiplicities must be nonnegative"),
    ({"a3": [0, 0]}, "expected 3 multiplicities, got 2"),
    ({"l2": named_class(Surface.B, "f")}, "twist classes must live on B'"),
    # checked in field order: l2's surface before l3's type
    ({"l2": named_class(Surface.B, "f"), "l3": None}, "twist classes must live on B'"),
    ({"l2": None}, "l2 must be a DivisorClass"),
    ({"l3": (0,) * 10}, "l3 must be a DivisorClass"),
], ids=["bool-k2", "float-d3", "negative", "short-list", "l2-on-B", "l2-on-B-l3-none", "l2-none",
        "l3-tuple"])
def test_bundle_params_checks_keep_their_messages(change, message):
    """Built or replaced, a bad field is the ValueError naming it, never an
    AttributeError from a check that reads it."""
    golden = golden_params()
    values = {**{f.name: getattr(golden, f.name) for f in dataclasses.fields(golden)}, **change}
    for build in (lambda: BundleParams(*values.values()), lambda: dataclasses.replace(golden, **change)):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_bundle_params_stay_a_frozen_dataclass():
    """The checks sit in __post_init__ behind the generated __init__, so
    the fields, equality, hash, repr, replace and pickling are the
    dataclass's own; a list is stored as a tuple."""
    golden = golden_params()
    names = [f.name for f in dataclasses.fields(BundleParams)]
    assert names == ["k2", "k3", "d2", "d3", "a2", "a3", "l2", "l3"]
    listed = BundleParams(3, 6, 10, 10, [0, 0], [0, 0, 0], golden.l2, golden.l3)
    assert listed.a2 == (0, 0) and type(listed.a2) is tuple and type(listed.a3) is tuple
    assert listed == golden and hash(listed) == hash(golden)
    values = tuple(getattr(golden, name) for name in names)
    assert hash(golden) == hash(values)
    assert repr(golden) == "BundleParams(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    assert dataclasses.replace(golden, d2=12) == golden_params(d2=12)
    assert dataclasses.replace(golden, d2=12) != golden
    assert list(vars(golden)) == names
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(golden, protocol))
        assert clone == golden and clone is not golden and list(vars(clone)) == names
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(golden, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(golden, name)
    assert golden == golden_params()


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


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
)
def test_slope_pairing_grid(a, b, c):
    """For the worked assembly the slope pairing c1(V2) . h' is 12a - (b + c)
    on the whole polarization grid; the report's S_s carries it wherever h'
    is ample and refuses the other points."""
    hprime = named_combination(BP, {"f": a, "e1": b, "xi": c})
    slope = intersect(ch_component(2, golden_params()).c1_bp, hprime)
    assert slope == 12 * a - (b + c)
    if is_ample_fxi(a, b, c).ample:
        assert evaluate_constraints(golden_params(), hprime).entry("S_s").value == slope
    else:
        with pytest.raises(PolarizationError):
            evaluate_constraints(golden_params(), hprime)


# === dimension bookkeeping ===


def test_ext_lower_bound_values():
    assert ext_lower_bound(3, 6, 6, -4) == 150
    assert ext_lower_bound(2, 4, 9, -6) == 120


# === the int kernel of the report against the ChernX oracle ===


K1_NOTE = "k = 1 row: geometric side conditions not certified by this search"


def _report_oracle(p, hprime):
    """The constraint report built step by step from ch(V) = ch(V2) + ch(V3)
    as ChernX values, each from the product-rule oracle, with Fraction
    pairings throughout; the k = 2 k3 - 3 k2 = 1 row carries its note."""
    coords = fxi_coordinates(hprime)
    if coords is None or not is_ample_fxi(*coords).ample:
        raise PolarizationError(
            "polarization is not certified ample in the (f', e1', xi') frame"
        )

    s21 = newton_sum(p.a2, 1)
    s31 = newton_sum(p.a3, 1)
    total = oracle_component(2, p) + oracle_component(3, p)

    l2f, l3f = intersect(p.l2, FP), intersect(p.l3, FP)
    se_slack = l2f - l3f
    slope_class = 2 * p.l2 + Fraction(p.d2 + 1 - 2 * p.k2) * FP - s21 * COMPONENT_SUM
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
        notes=(K1_NOTE,) if 2 * p.k3 - 3 * p.k2 == 1 else (),
    )




# polarizations: ample and non-ample triples, fractional ones, and classes
# off the (f', e1', xi') frame
polarizations = st.one_of(
    st.builds(
        polarization_class,
        st.tuples(*[st.integers(min_value=-5, max_value=200)] * 3),
    ),
    st.builds(
        lambda t, q: Fraction(1, q) * polarization_class(t),
        st.tuples(*[st.integers(min_value=1, max_value=60)] * 3),
        st.sampled_from([2, 3, 7]),
    ),
    st.builds(
        lambda t, e: polarization_class(t) + e * named_class(BP, "e2"),
        st.tuples(*[st.integers(min_value=1, max_value=60)] * 3),
        st.integers(min_value=1, max_value=3),
    ),
)
multiplicities = st.integers(min_value=0, max_value=5)



@settings(max_examples=300)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=3, max_value=9),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-40, max_value=40),
    st.tuples(multiplicities, multiplicities),
    st.tuples(multiplicities, multiplicities, multiplicities),
    twists,
    twists,
    polarizations,
)
def test_report_matches_chern_oracle(k2, k3, d2, d3, a2, a3, l2, l3, hprime):
    p = BundleParams(k2, k3, d2, d3, a2, a3, l2, l3)
    try:
        expected = _report_oracle(p, hprime)
    except PolarizationError:
        with pytest.raises(PolarizationError):
            evaluate_constraints(p, hprime)
        return
    report = evaluate_constraints(p, hprime)
    assert report == expected
    for entry in report.entries:
        assert entry.value is None or type(entry.value) is Fraction
    assert all(type(v) is Fraction for v in report.c2_deficit)
    assert type(report.c3) is Fraction


def test_report_rejects_a_polarization_on_b():
    hprime = named_combination(Surface.B, {"f": 25, "e1": 144, "xi": 168})
    with pytest.raises(SurfaceMismatchError):
        evaluate_constraints(golden_params(), hprime)
    with pytest.raises(SurfaceMismatchError):
        _report_oracle(golden_params(), hprime)


def test_memoized_gate_raises_on_every_call():
    hprime = named_combination(BP, {"f": 1, "e1": 3, "xi": 1})
    for _ in range(2):
        with pytest.raises(PolarizationError):
            evaluate_constraints(golden_params(), hprime)


def test_gate_cache_stays_bounded():
    gate = assembly_module.certified_ample
    for a in range(200):
        evaluate_constraints(golden_params(), polarization_class((300 + a, 1, 1)))
    info = gate.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize < 200
