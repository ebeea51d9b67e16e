"""Acceptance suite: one exact check per criterion, one line of output each.

Every value here is exact rational arithmetic, zero tolerance.  The PASS/FAIL
lines are written to the unbuffered console stream so they stay visible under
output capture.
"""

from fractions import Fraction
from itertools import product

from ellspec.assembly import (
    BundleParams,
    ch_component,
    ch_total,
    default_polarization,
    evaluate_constraints,
    ext_lower_bound,
    spectral_input,
)
from ellspec.characters import (
    SPANNING_CHARACTERS,
    chi_in_lattice,
    lambda_rank,
    lambda_representation,
)
from ellspec.hecke import hecke_pattern_ch, means_gap
from ellspec.lattice import (
    NOT_EFFECTIVE,
    Surface,
    descent_not_effective,
    intersect,
    invariant_subspace_has_integral_point,
    is_ample_fxi,
    named_class,
    named_combination,
    pairing_table,
)
from ellspec.solver import (
    build_l_classes_m,
    consistency_check,
    enumerate_table1,
)
from ellspec.spectral import (
    SpectralParams,
    curve_pushforward_ch,
    fourier_mukai_b,
    linear_system_dims,
    spectral_ch,
    spectral_genus,
)
from ellspec.threefold import ChernX, pullback_from_b, pullback_line_bundle_ch

BP = Surface.BPRIME
M1 = named_class(BP, "m1")


def criterion(num: int, label: str):
    """Print one PASS/FAIL line per criterion on the real console stream."""

    def wrap(fn):
        def run(capfd):
            outcome = "FAIL"
            try:
                fn()
                outcome = "PASS"
            finally:
                with capfd.disabled():
                    print(f"{outcome} criterion {num:02d}: {label}", flush=True)

        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        return run

    return wrap


@criterion(1, "admissible (k2, k3) table has exactly five rows and no sixth")
def test_criterion_01_admissible_table():
    rows = [(r.k2, r.k3, r.l2f, r.l3f) for r in enumerate_table1()]
    assert rows == [
        (2, 4, 9, -6),
        (2, 6, 3, -2),
        (3, 5, 18, -12),
        (3, 6, 6, -4),
        (4, 7, 9, -6),
    ]
    # independent brute force over the whole bounded rectangle
    found = []
    for k2 in range(2, 11):
        for k3 in range(3, 11):
            if k2 + k3 > 12:
                continue
            k = 2 * k3 - 3 * k2
            if k <= 0:
                continue
            l2f, l3f = Fraction(18, k), Fraction(-12, k)
            if l2f.denominator == 1 and l3f.denominator == 1:
                found.append((k2, k3, int(l2f), int(l3f)))
    assert found == rows


@criterion(2, "fixed-frame pairing matrix from basis expansions")
def test_criterion_02_pairing_matrix():
    frame = [
        named_combination(BP, {"e": 1, "zeta": 1}),
        named_class(BP, "f"),
        named_combination(BP, {"n1": 1, "o2": 1}),
    ]
    assert pairing_table(frame) == (
        (-2, 2, 2),
        (2, 0, 0),
        (2, 0, -4),
    )


@criterion(3, "genus anchors g(2,2) = 2 and g(3,6) = 13")
def test_criterion_03_genus_anchors():
    assert spectral_genus(2, 2) == 2
    assert spectral_genus(3, 6) == 13


@criterion(4, "linear system dimensions and the moduli tally")
def test_criterion_04_dimension_anchors():
    dims, cover_dims = linear_system_dims(3, 6), linear_system_dims(2, 2)
    computed = (cover_dims.invariant - 1, dims.invariant - 1, dims.anti_invariant - 1)
    assert computed == (2, 8, 6)
    # the moduli tally's other two terms are inputs that no function computes
    inputs = (1, 79)
    assert sum(computed) + sum(inputs) == 96


@criterion(5, "ext lower bound 150 on the (3, 6) row")
def test_criterion_05_ext_bound():
    assert ext_lower_bound(3, 6, 6, -4) == 150


@criterion(6, "ampleness witnesses and the negative slope pairing")
def test_criterion_06_ample_and_slope():
    cert = is_ample_fxi(25, 144, 168)
    assert cert.ample
    assert cert.witnesses() == (49, 1, 312, 168, 144, 15024)
    slope_class = named_combination(BP, {"e": 6, "zeta": 6, "f": 5, "m1": 6})
    hp = default_polarization()
    value = intersect(slope_class, hp)
    assert value == 12 * 25 - 312 == -12
    assert value < 0


@criterion(7, "descent certifies the obstruction class is not effective")
def test_criterion_07_descent():
    target = named_combination(BP, {"zeta": 6, "xi": 6, "f": -1})
    cert = descent_not_effective(target)
    assert cert.verdict == NOT_EFFECTIVE
    assert len(cert.steps) >= 1


@criterion(8, "end-to-end golden certificate with exact slacks")
def test_criterion_08_golden_certificate():
    l2, l3 = build_l_classes_m(3, 6, -3, 5, 1 * M1, 10, 10, 0, 0)
    assert l2 == named_combination(BP, {"e": 3, "zeta": 3, "m1": 3})
    assert l3 == named_combination(BP, {"e": -2, "zeta": -2, "m1": -2})
    params = BundleParams(3, 6, 10, 10, (0, 0), (0, 0, 0), l2, l3)
    report = evaluate_constraints(params, default_polarization())
    assert report.all_pass
    for name in ("S_e", "S_s", "C1", "C2_f", "C2_fprime", "C3", "integrality"):
        assert report.entry(name).passes
    assert report.entry("C2_f").value == 3
    assert report.entry("C2_fprime").value == 2
    ch = ch_total(params)
    assert ch.rank == 5
    assert ch.c1_b.is_zero and ch.c1_bp.is_zero
    assert (ch.h4_fpt, ch.h4_ptf) == (-10, -9)
    assert ch.h6 == 6
    assert report.c3 == 12
    assert report.c2_deficit == (2, 3)
    assert all(v >= 0 for v in report.c2_deficit)


@criterion(9, "closed forms agree with step-by-step oracles on full grids")
def test_criterion_09_oracle_equivalences():
    # spectral closed form vs transform of the curve pushforward
    for r in range(1, 6):
        for m in range(13):
            for d in range(-20, 21):
                p = SpectralParams(r, m, d)
                assert spectral_ch(p) == fourier_mukai_b(curve_pushforward_ch(p))

    # pattern corrections vs iterated elementary steps
    w = spectral_ch(SpectralParams(3, 6, 10))
    for length in (1, 2, 3):
        for a in product(range(5), repeat=length):
            assert hecke_pattern_ch(w, a) == _telescoped(w, a)

    # component characters vs the product-rule oracle
    base = _golden_params()
    for i in (2, 3):
        for d in (-5, 0, 7, 10):
            for a in _lists(i):
                for lcls in _twist_samples():
                    params = _with_component(base, i, d, a, lcls)
                    assert ch_component(i, params) == _component_oracle(i, params)

    # the first constraint holds identically in the parametrization
    n_plus_o = named_combination(BP, {"n1": 1, "o2": 1})
    fp = named_class(BP, "f")
    for row in enumerate_table1():
        for u, x, z, d2, d3, s21, s31 in product(
            (-3, 0, 2), (-1, 5), (0, 1, 2), (0, 10), (1, 10), (0, 2), (0, 3)
        ):
            l2, l3 = build_l_classes_m(row.k2, row.k3, u, x, z * M1, d2, d3, s21, s31)
            lhs = 2 * l2 + 3 * l3
            rhs = (s21 + s31) * n_plus_o - Fraction(
                d2 + d3 - 2 * row.k2 - 3 * row.k3 + 4
            ) * fp
            assert lhs == rhs


@criterion(10, "means gap is nonpositive and accounts for the slack")
def test_criterion_10_means_gap():
    for i in (2, 3):
        for a in product(range(7), repeat=i):
            gap = means_gap(i, a)
            assert gap <= 0
            assert (gap == 0) == (len(set(a)) == 1)
    # at the forced shape the second window slack is the gap sum plus two
    hp = default_polarization()
    for a2 in product(range(4), repeat=2):
        for a3 in product(range(4), repeat=3):
            s21, s31 = sum(a2), sum(a3)
            l2, l3 = build_l_classes_m(3, 6, -3, 5, 1 * M1, 10, 10, s21, s31)
            params = BundleParams(3, 6, 10, 10, a2, a3, l2, l3)
            report = evaluate_constraints(params, hp)
            expected = means_gap(2, a2) + means_gap(3, a3) + 2
            assert report.entry("C2_fprime").value == expected


@criterion(11, "the invariant subspace misses the integral lattice")
def test_criterion_11_integrality_obstruction():
    assert invariant_subspace_has_integral_point().exists is False


@criterion(12, "all seven restricted characters lie in the lattice, rank 7")
def test_criterion_12_characters():
    assert len(SPANNING_CHARACTERS) == 7
    assert all(chi_in_lattice(chi) for chi in SPANNING_CHARACTERS)
    reps = [lambda_representation(chi) for chi in SPANNING_CHARACTERS]
    assert lambda_rank(reps) == 7


@criterion(13, "consistency region contains its center for k in {1, 2, 3, 6}")
def test_criterion_13_consistency_center():
    for k in (1, 2, 3, 6):
        result = consistency_check(k, Fraction(-9, k), Fraction(3, k))
        assert result.value == -12
        assert result.passes


# === oracle helpers for criterion 9 ===


def _telescoped(w, a):
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


def _golden_params():
    return BundleParams(
        k2=3,
        k3=6,
        d2=10,
        d3=10,
        a2=(0, 0),
        a3=(0, 0, 0),
        l2=named_combination(BP, {"e": 3, "zeta": 3, "m1": 3}),
        l3=named_combination(BP, {"e": -2, "zeta": -2, "m1": -2}),
    )


def _lists(i):
    if i == 2:
        return [(0, 0), (1, 1), (2, 2), (0, 2), (1, 3)]
    return [(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 1, 2), (3, 0, 1)]


def _twist_samples():
    return [
        named_combination(BP, {}),
        named_combination(BP, {"e": 3, "zeta": 3, "m1": 3}),
        named_combination(BP, {"e": -2, "zeta": -2, "m1": -2, "f": 1}),
        named_combination(BP, {"f": 2, "m1": -1}),
    ]


def _with_component(base, i, d, a, lcls):
    if i == 2:
        return BundleParams(
            base.k2, base.k3, d, base.d3, a, base.a3, lcls, base.l3
        )
    return BundleParams(base.k2, base.k3, base.d2, d, base.a2, a, base.l2, lcls)


def _component_oracle(i, params):
    base = hecke_pattern_ch(spectral_ch(spectral_input(i, params)), params.component(i)[2])
    return base * pullback_line_bundle_ch(params.component(i)[3])
